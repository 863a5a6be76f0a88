type t = string array

let make names = Array.of_list names
let dim = Array.length
let name t i = t.(i)
let names t = Array.to_list t

let append t extra = Array.append t (Array.of_list extra)
let equal a b = a = b
let pp ppf t = Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ", ") string) (names t)

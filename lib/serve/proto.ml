module Json = Hextile_obs.Json

type op = Run | Tilesize | Compile | Stats | Ping | Shutdown

type request = {
  id : Json.t;
  op : op;
  source : string option;
  builtin : string option;
  n : int;
  t : int;
  device : string;
  scheme : string;
  engine : string;
  analytic : bool;
  h : int option;
  w : int list option;
  timeout_ms : int option;
}

let op_of_name = function
  | "run" -> Some Run
  | "tilesize" -> Some Tilesize
  | "compile" -> Some Compile
  | "stats" -> Some Stats
  | "ping" -> Some Ping
  | "shutdown" -> Some Shutdown
  | _ -> None

let parse_request line =
  match Json.parse line with
  | Error e -> Error (Json.Null, "parse error: " ^ e)
  | Ok doc -> (
      let id = Option.value ~default:Json.Null (Json.member "id" doc) in
      let str k = Option.bind (Json.member k doc) Json.to_str in
      let int k = Option.bind (Json.member k doc) Json.to_int in
      let fail m = Error (id, m) in
      match str "op" with
      | None -> fail "missing or non-string \"op\""
      | Some name -> (
          match op_of_name name with
          | None -> fail (Printf.sprintf "unknown op %S" name)
          | Some op -> (
              let w =
                match Json.member "w" doc with
                | None | Some Json.Null -> Ok None
                | Some j -> (
                    match
                      Option.map
                        (List.map Json.to_int)
                        (Json.to_list j)
                    with
                    | Some l when List.for_all Option.is_some l ->
                        Ok (Some (List.map Option.get l))
                    | _ -> Error "\"w\" must be a list of integers")
              in
              match w with
              | Error m -> fail m
              | Ok w ->
                  let bool k =
                    match Json.member k doc with
                    | Some (Json.Bool b) -> b
                    | _ -> false
                  in
                  Ok
                    {
                      id;
                      op;
                      source = str "source";
                      builtin = str "builtin";
                      n = Option.value ~default:64 (int "N");
                      t = Option.value ~default:16 (int "T");
                      device = Option.value ~default:"gtx470" (str "device");
                      scheme = Option.value ~default:"hybrid" (str "scheme");
                      engine = Option.value ~default:"tape" (str "engine");
                      analytic = bool "analytic";
                      h = int "h";
                      w;
                      timeout_ms = int "timeout_ms";
                    })))

let work_key r = { r with id = Json.Null; timeout_ms = None }

let line j = Json.to_string ~minify:true j

let ok_line ~id payload =
  line (Json.Obj (("id", id) :: ("ok", Json.Bool true) :: payload))

let error_line ~id msg =
  line (Json.Obj [ ("id", id); ("ok", Json.Bool false); ("error", Json.Str msg) ])

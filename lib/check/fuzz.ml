open Hextile_ir
module Par = Hextile_par.Par

type config = {
  seed : int;
  count : int;
  shrink : bool;
  mutate : string option;
  schemes : string list option;
  out_dir : string option;
}

let default_config =
  {
    seed = 42;
    count = 100;
    shrink = false;
    mutate = None;
    schemes = None;
    out_dir = None;
  }

type failure_case = {
  f_index : int;
  f_prog : Stencil.t;
  f_env : (string * int) list;
  f_failures : Oracle.failure list;
  f_shrunk : bool;
  f_path : string option;
}

type summary = {
  total : int;
  passed : int;
  failed : int;
  skipped : int;
  caught : int;
  missed : int;
  cases : failure_case list;
}

let max_kept_cases = 10

let counterexample_source ?mutate ~seed ~index prog env failures =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Fmt.str "// hextile fuzz counterexample (seed %d, iteration %d)\n" seed
       index);
  Buffer.add_string b
    (Fmt.str "// replay: hextile fuzz --replay FILE %s%s\n"
       (String.concat " "
          (List.map (fun (n, v) -> Fmt.str "-%s %d" n v) env))
       (match mutate with Some m -> " --mutate " ^ m | None -> ""));
  List.iter
    (fun f ->
      let text = Fmt.str "%a" Oracle.pp_failure f in
      String.split_on_char '\n' text
      |> List.iter (fun line -> Buffer.add_string b ("// " ^ line ^ "\n")))
    failures;
  Buffer.add_string b (Pretty.to_source prog);
  Buffer.contents b

(* [--out some/nested/dir] must work whether or not the directory exists
   yet (regression: [open_out] used to crash on the first missing
   component). *)
let rec mkdir_p dir =
  if dir <> "" && not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_counterexample ?mutate dir ~seed ~index prog env failures =
  mkdir_p dir;
  let path =
    Filename.concat dir (Fmt.str "counterexample_s%d_i%d.c" seed index)
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (counterexample_source ?mutate ~seed ~index prog env failures));
  path

(* A flipped offset is only observable when the statement it lands in
   executes at least one instance — under a degenerate valuation its
   domain can be empty, and the mutant is then semantically identical to
   the original. Those iterations are skips, not misses. *)
let mutation_effective prog env =
  match Gen.flip_offset prog with
  | None -> false
  | Some prog' -> (
      let envf p = List.assoc p env in
      let changed =
        List.find_index
          (fun ((a : Stencil.stmt), (b : Stencil.stmt)) -> a.rhs <> b.rhs)
          (List.combine prog.Stencil.stmts prog'.Stencil.stmts)
      in
      match changed with
      | None -> false
      | Some i ->
          let s = List.nth prog.Stencil.stmts i in
          Affp.eval prog.steps envf >= 1
          && Array.for_all2
               (fun lo hi -> Affp.eval lo envf <= Affp.eval hi envf)
               s.lo s.hi)

(* Shrinking predicate: the candidate still produces a failure with the
   original first failure's (scheme, kind) signature — re-running only
   that scheme keeps each probe cheap. *)
let still_fails_like cfg dev f0 prog env =
  let scheme = Oracle.scheme_of_failure f0 in
  let kind = Oracle.kind_of_failure f0 in
  match Oracle.check ?mutate:cfg.mutate ~schemes:[ scheme ] prog env dev with
  | Error _ -> false
  | Ok fs ->
      List.exists
        (fun f ->
          Oracle.scheme_of_failure f = scheme && Oracle.kind_of_failure f = kind)
        fs

(* One iteration's result, computed without touching the summary or the
   filesystem so that iterations can run on any domain. Log lines are
   collected in order and replayed by the (sequential, index-ordered)
   aggregation step — [--jobs N] and [--jobs 1] produce the same lines. *)
type iter_fail = {
  d_prog : Stencil.t;  (** after shrinking, when enabled *)
  d_env : (string * int) list;
  d_failures : Oracle.failure list;
  d_shrunk : bool;
}

type iter_outcome = Skip | Pass | Fail of iter_fail

let compute_iteration cfg dev rng i =
  let lines = ref [] in
  let log s = lines := s :: !lines in
  let outcome =
    let prog, env = Gen.generate (Rng.derive rng i) in
    let names = Oracle.scheme_names prog in
    let applicable =
      match cfg.schemes with
      | None -> true
      | Some l -> List.exists (fun n -> List.mem n names) l
    in
    let mutate_ok =
      match cfg.mutate with
      | None -> true
      | Some m -> List.mem m names && mutation_effective prog env
    in
    if not (applicable && mutate_ok) then begin
      log
        (Fmt.str "iteration %d: skipped (%s)" i
           (if applicable then "no offset to flip or scheme not applicable"
            else "scheme filter not applicable to this program"));
      Skip
    end
    else
      let schemes =
        Option.map (List.filter (fun n -> List.mem n names)) cfg.schemes
      in
      let check prog = Oracle.check ?mutate:cfg.mutate ?schemes prog env dev in
      (* Outside the mutation self-test, a program that passes runs again
         with every statement's write translated ({!Gen.translate_writes});
         a failure reports the translated program. *)
      let checked =
        match check prog with
        | Ok [] when cfg.mutate = None -> (
            let tprog = Gen.translate_writes prog in
            match check tprog with
            | Ok [] -> Ok (prog, [], "")
            | Ok fs -> Ok (tprog, fs, " (translated writes)")
            | Error m -> Error (m ^ " (translated writes)"))
        | r -> Result.map (fun fs -> (prog, fs, "")) r
      in
      match checked with
      | Error m ->
          log (Fmt.str "iteration %d: skipped (%s)" i m);
          Skip
      | Ok (_, [], _) ->
          if cfg.mutate <> None then
            log (Fmt.str "iteration %d: mutant MISSED" i);
          Pass
      | Ok (prog, failures, variant) ->
          let f0 = List.hd failures in
          log
            (Fmt.str "iteration %d: %s failure on %s%s%s" i
               (Oracle.kind_of_failure f0)
               (Oracle.scheme_of_failure f0)
               variant
               (if cfg.mutate <> None then " (mutant caught)" else ""));
          let prog, env, failures, shrunk =
            if not cfg.shrink then (prog, env, failures, false)
            else begin
              let p', e' =
                Shrink.shrink
                  ~still_fails:(still_fails_like cfg dev f0)
                  prog env
              in
              let fs' =
                match
                  Oracle.check ?mutate:cfg.mutate
                    ~schemes:[ Oracle.scheme_of_failure f0 ]
                    p' e' dev
                with
                | Ok (_ :: _ as fs) -> fs
                | Ok [] | Error _ -> failures
              in
              log
                (Fmt.str
                   "iteration %d: shrunk to %d statement(s), %s" i
                   (List.length p'.Stencil.stmts)
                   (String.concat ", "
                      (List.map (fun (n, v) -> Fmt.str "%s=%d" n v) e')));
              (p', e', fs', true)
            end
          in
          Fail { d_prog = prog; d_env = env; d_failures = failures; d_shrunk = shrunk }
  in
  (outcome, List.rev !lines)

let run ?pool ?(log = ignore) cfg dev =
  let rng = Rng.create cfg.seed in
  let summary =
    ref
      {
        total = 0;
        passed = 0;
        failed = 0;
        skipped = 0;
        caught = 0;
        missed = 0;
        cases = [];
      }
  in
  let bump f = summary := f !summary in
  (* Sequential, index-ordered aggregation: streams logs, writes
     counterexamples and folds the summary — identical for every jobs
     value because outcomes arrive indexed. *)
  let absorb i (outcome, lines) =
    bump (fun s -> { s with total = s.total + 1 });
    List.iter log lines;
    match outcome with
    | Skip -> bump (fun s -> { s with skipped = s.skipped + 1 })
    | Pass ->
        bump (fun s ->
            {
              s with
              passed = s.passed + 1;
              missed = (s.missed + if cfg.mutate <> None then 1 else 0);
            })
    | Fail { d_prog = prog; d_env = env; d_failures = failures; d_shrunk } ->
        bump (fun s ->
            {
              s with
              failed = s.failed + 1;
              caught = (s.caught + if cfg.mutate <> None then 1 else 0);
            });
        let path =
          Option.map
            (fun dir ->
              let p =
                write_counterexample ?mutate:cfg.mutate dir ~seed:cfg.seed
                  ~index:i prog env failures
              in
              log (Fmt.str "iteration %d: counterexample written to %s" i p);
              p)
            cfg.out_dir
        in
        bump (fun s ->
            if List.length s.cases >= max_kept_cases then s
            else
              {
                s with
                cases =
                  s.cases
                  @ [
                      {
                        f_index = i;
                        f_prog = prog;
                        f_env = env;
                        f_failures = failures;
                        f_shrunk = d_shrunk;
                        f_path = path;
                      };
                    ];
              })
  in
  let indices = Array.init cfg.count Fun.id in
  (match pool with
  | Some p when Par.jobs p > 1 && not (Par.in_region ()) ->
      (* all iterations computed in parallel, then absorbed in order *)
      let outcomes = Par.map p (compute_iteration cfg dev rng) indices in
      Array.iteri (fun i o -> absorb i o) outcomes
  | _ ->
      (* jobs = 1: compute and absorb strictly interleaved, so logs
         stream as the campaign progresses — the historical behaviour *)
      Array.iter (fun i -> absorb i (compute_iteration cfg dev rng i)) indices);
  !summary

let ok cfg s =
  match cfg.mutate with
  | None -> s.failed = 0
  | Some _ -> s.missed = 0 && s.caught >= 1

let pp_summary cfg ppf s =
  Fmt.pf ppf "@[<v>%d iteration(s): %d passed, %d failed, %d skipped" s.total
    s.passed s.failed s.skipped;
  (match cfg.mutate with
  | Some m ->
      Fmt.pf ppf "@,mutation self-test (%s): %d caught, %d missed" m s.caught
        s.missed
  | None -> ());
  List.iter
    (fun c ->
      Fmt.pf ppf "@,@[<v2>iteration %d%s (%s):" c.f_index
        (if c.f_shrunk then " (shrunk)" else "")
        (String.concat ", "
           (List.map (fun (n, v) -> Fmt.str "%s=%d" n v) c.f_env));
      List.iter (fun f -> Fmt.pf ppf "@,%a" Oracle.pp_failure f) c.f_failures;
      Fmt.pf ppf "@]")
    s.cases;
  Fmt.pf ppf "@]"

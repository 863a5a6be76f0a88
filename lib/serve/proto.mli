(** The serve wire protocol: JSON lines.

    One request per line, one response line per request, in request
    order. A request is a JSON object:

    {v
    {"id": <any json>,        // echoed verbatim in the response
     "op": "run" | "tilesize" | "compile" | "stats" | "ping" | "shutdown",
     "builtin": "jacobi2d" |  // or "source": "<stencil source text>"
     "N": 64, "T": 16,        // environment (defaults 64 / 16)
     "device": "gtx470",      // or "nvs5200"
     "scheme": "hybrid",      // ppcg | par4all | overtile | patus
     "engine": "tape",        // or "ref"
     "analytic": false,
     "h": 3, "w": [32, 4],    // optional tile overrides (compile)
     "timeout_ms": 500}       // optional admission deadline
    v}

    Responses are single-line objects: [{"id":…, "ok":true, …payload}]
    or [{"id":…, "ok":false, "error":"…"}]. Payloads of [run],
    [tilesize] and [compile] are deterministic — bit-identical for a
    given request at every jobs value, cold or warm cache. [stats] and
    [ping] are server-side introspection and excluded from that
    contract. *)

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

val parse_request : string -> (request, Json.t * string) result
(** Parse one request line. On error the returned [Json.t] is the
    request's [id] if one could be extracted ([Null] otherwise), so the
    error response still correlates. *)

val work_key : request -> request
(** The request with [id] and [timeout_ms] cleared — two requests with
    equal work keys are the same work, and a wave computes it once. *)

val ok_line : id:Json.t -> (string * Json.t) list -> string
(** Serialized single-line success response. *)

val error_line : id:Json.t -> string -> string
(** Serialized single-line error response. *)

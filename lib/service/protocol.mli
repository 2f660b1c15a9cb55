(** Wire protocol of the report service.

    Frames are a 4-byte big-endian payload length followed by the payload
    -- one flat JSON object per frame, parsed with {!Vmbp_store.Sjson}
    (the same strict parser the store uses), so a frame is either
    well-formed or rejected; nothing is inferred from broken input.

    Requests carry a ["verb"] field:

    - [query]: one cell -- ["vm"] ([forth]/[jvm]), ["workload"],
      ["technique"] (a {!Vmbp_core.Technique} name), ["cpu"] (a
      {!Vmbp_machine.Cpu_model} name), optional ["scale"] (default 1) and
      ["predictor"] ([perfect]/[never] override).
    - [grid]: the full reproduction grid (every experiment), returned as
      a complete [vmbp-cells/8] document in the reply's ["cells"] field.
      Optional ["scale"] (at least 1) overrides every experiment's
      default.
    - [stats], [health], [shutdown]: no further fields.
    - [metrics]: the live telemetry registry; optional ["format"] of
      [json] (default, a [vmbp-metrics/1] document) or [prometheus]
      (text exposition), returned in the reply's ["body"] field.
    - [dump]: write the crash flight recorder to a [vmbp-flight-*.json]
      artifact on the server and return its path.

    Any request may additionally carry an optional ["rid"] -- an opaque
    client-chosen request id.  The server echoes it in the reply and
    threads it through its tracing spans, which is what links one RPC
    end-to-end across client, event thread and compute domain.

    Every reply carries ["status"]: [ok], [overloaded] (admission control
    shed the request, or the service is draining), [timeout] (the
    per-request deadline passed), [error] (the cell computed to a
    failure), or [bad-request].  A [health] reply's ["state"] is
    [serving] or [draining]. *)

exception Oversized of int
(** A frame header announced more bytes than the reader's cap. *)

val encode_frame : string -> string
(** The payload with its 4-byte big-endian length prefixed. *)

val peel : max:int -> string -> [ `Frame of string * string | `Await ]
(** Split one frame off an input buffer: [`Frame (payload, rest)] when a
    whole frame is present, [`Await] when more bytes are needed.  Raises
    {!Oversized} as soon as a header exceeds [max], before the payload
    arrives. *)

val connect : string -> Unix.file_descr
(** A blocking connection to the service listening on this Unix-domain
    socket path.  Raises [Unix.Unix_error] when nobody listens there,
    having closed the socket it opened. *)

val write_frame : Unix.file_descr -> string -> unit
(** Blocking send of one frame. *)

val read_frame : ?max:int -> Unix.file_descr -> string option
(** Blocking read of one frame; [None] on a clean EOF before the first
    header byte.  Raises {!Oversized} past [max] (default 64 MiB) and
    [End_of_file] on EOF mid-frame (a truncated frame). *)

(** Reply payloads: flat JSON objects. *)
type jv = S of string | I of int | F of float | B of bool

val obj : (string * jv) list -> string

type request =
  | Query of Vmbp_report.Par_runner.cell
  | Grid of { scale : int option }
  | Stats
  | Health
  | Metrics of { format : [ `Json | `Prometheus ] }
  | Dump
  | Shutdown

val request_of_payload : string -> (request, string) result
(** Parse and resolve one request payload; [Error] names the offending
    field (unknown verb, unknown workload/technique/cpu, bad scale). *)

val rid_of_payload : string -> string option
(** The optional ["rid"] field of a request payload ([None] when absent
    or the payload is malformed). *)

val with_rid : string -> string -> string
(** [with_rid payload rid] splices [,"rid":"..."] into a flat-JSON-object
    payload before its closing brace (no reparse, no copy of the fields),
    so one shared batch result can be echoed to each coalesced waiter
    under that waiter's own request id.  Payloads that are not a JSON
    object are returned unchanged. *)

val query_payload :
  vm:string ->
  workload:string ->
  technique:string ->
  cpu:string ->
  ?scale:int ->
  ?predictor:string ->
  ?rid:string ->
  unit ->
  string
(** The [query] request a client sends; names are passed through verbatim
    (the server resolves them).  [rid] is the optional client-side
    request id echoed by the server. *)

(** The persisted cell record: one completed experiment cell, serialized
    as one flat JSON line.

    What the content-addressed store ({!Store}) persists.  Only
    integer event counters are stored for a success -- cycles and seconds
    are recomputed from them through {!Vmbp_machine.Cpu_model} -- so a
    cell served from disk is byte-identical to a freshly computed one by
    construction. *)

type success = {
  metrics : Vmbp_machine.Metrics.t;
      (** deterministic and simulated event counters; cycles and seconds
          are recomputed, so no float round-trips through the file *)
  steps : int;
  output : string;
}

type entry = {
  key : string;  (** parameter-complete cell key *)
  fingerprint : string;  (** configuration digest; both must match *)
  outcome : (success, string) result;
  attempts : int;
  timed_out : bool;
}

val to_line : entry -> string
(** The record as one flat JSON object, no trailing newline (framing and
    newline are the container's business). *)

val of_line : string -> entry option
(** Parse one payload line; [None] on anything malformed. *)

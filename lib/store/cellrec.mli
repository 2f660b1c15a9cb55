(** The persisted cell record: one successfully completed experiment
    cell, serialized as one flat JSON line.

    What the content-addressed store ({!Store}) persists.  A failed cell
    is never stored.  Only integer event counters are stored -- cycles
    and seconds are recomputed from them through
    {!Vmbp_machine.Cpu_model} -- so a cell served from disk is
    byte-identical to a freshly computed one by construction. *)

type entry = {
  key : string;  (** parameter-complete cell key *)
  fingerprint : string;  (** configuration digest; both must match *)
  metrics : Vmbp_machine.Metrics.t;
      (** deterministic and simulated event counters; cycles and seconds
          are recomputed, so no float round-trips through the file *)
  steps : int;
  output : string;
}

val to_line : entry -> string
(** The record as one flat JSON object, no trailing newline (framing and
    newline are the container's business). *)

val of_line : string -> entry option
(** Parse one payload line; [None] on anything this format cannot read,
    an ["ok":false] failure record (which no writer produces now)
    included.  The store keeps such a line unread.  Fields an older build
    wrote beside a success ([attempts], [timed_out]) are ignored. *)

(** Crash flight recorder: a fixed-size, lock-free ring of the last
    {!capacity} event-loop and pool transitions.

    Recording is always on and always cheap (one record allocation and
    two atomic operations per {!note}); the ring overwrites its oldest
    entries, so whatever the process was doing just before a degradation,
    a wedge, or a crash is what survives.  Hosts dump {!to_json} to a
    [vmbp-flight-*.json] artifact on degradation entry, unclean exit,
    fatal signal, and on demand.

    Timestamps are {!Vmbp_sim.Env.now}, as in {!Span}: simulated runs,
    on virtual time, produce deterministic dumps. *)

type entry = {
  seq : int;  (** global sequence number, 0-based *)
  ts : float;  (** {!Vmbp_sim.Env.now} timestamp, seconds *)
  dom : int;  (** recording domain id *)
  kind : string;  (** transition class, e.g. ["accept"], ["batch-start"] *)
  detail : string;  (** free-form context *)
}

val capacity : int
(** Ring size (number of retained entries). *)

val note : kind:string -> string -> unit
(** Record one transition.  Lock-free; callable from any domain. *)

val reset : unit -> unit
(** Clear the ring and the sequence counter (fresh-process semantics). *)

val recorded : unit -> int
(** Total transitions ever noted (≥ number of retained entries). *)

val entries : unit -> entry list
(** Retained entries in sequence order, oldest first. *)

val to_json : ?reason:string -> unit -> string
(** Render the ring as a [vmbp-flight/1] JSON document: schema, optional
    dump reason, capacity, total recorded, dropped count, and the
    retained entries oldest-first. *)

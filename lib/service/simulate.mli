(** Deterministic simulation testing for the report service.

    Every seed drives one complete life of the system --- scripted
    clients, the real {!Service.serve} event loop and compute path, the
    real {!Vmbp_store.Store} --- inside a {!Vmbp_sim.Sim_env} world:
    virtual time, simulated sockets with seeded delay and loss,
    a simulated filesystem modeling torn writes and power cuts, and
    seeded whole-process crash/restart mid-schedule.  One OCaml thread
    runs everything, so a failing seed replays bit-for-bit.

    Invariants checked on every schedule:

    + {b Durability}: any result acked to a client before a crash is
      served from the store after restart.
    + {b Determinism}: replies, store entries and the grid document's
      per-cell values are identical across schedules, whatever the
      crash/fault interleaving.
    + {b Liveness}: the event loop never deadlocks (select-count cap,
      virtual-time bound) and shutdown always drains.
    + {b Store integrity}: after any crash point the store loads
      without error and never surfaces a mis-framed record.
    + {b Span completeness}: every acked request (all carry
      deterministic request ids) left a complete, well-ordered
      parse/admit/flush span path linked by its rid; requests that went
      through the compute domain are covered by a [compute-batch] span
      naming their key, and every reply echoes the rid of the request
      it answers.  Spans run on the virtual clock with per-seed id
      reset, so a seed's span trace is byte-identical across replays.

    The harness proves its own teeth by re-introducing two past bugs
    behind mutation flags --- acking before fsync, compaction without
    the final directory fsync --- and demanding each is caught within a
    bounded seed budget. *)

type mutation = Ack_before_fsync | No_dir_fsync

val mutation_name : mutation -> string

val mutations : (string * mutation) list
(** Every mutation under its command-line name. *)

val mutation_names : string list

type outcome = {
  o_seed : int;
  o_failures : string list;  (** empty = every invariant held *)
  o_crashes : int;  (** power cuts injected and survived *)
  o_acks : int;  (** query replies checked *)
  o_grids : int;  (** grid documents compared *)
  o_vtime : float;  (** virtual seconds the schedule spanned *)
  o_selects : int;  (** event-loop iterations consumed *)
  o_trace : string;  (** the schedule trace, for failure forensics *)
  o_spans : string;
      (** the schedule's span trace (Chrome trace-event JSON); a pure
          function of the seed *)
}

val run_seed : ?mutation:mutation -> int -> outcome
(** Run one seeded schedule (with one past bug re-introduced when
    [mutation] is given) and report what happened.  Restores {!Vmbp_sim.Env.current}, the chaos registry and the
    mutation flags on exit. *)

val run :
  ?first_seed:int ->
  ?mutation:mutation ->
  ?trace_file:string ->
  ?span_out:string ->
  ?metrics_out:string ->
  seeds:int ->
  unit ->
  int
(** The [simulate] command: sweep [seeds] consecutive seeds starting at
    [first_seed] (default 1) and return the process exit code.

    Without [mutation]: stop at the first failing seed, print its
    failures, write its schedule trace ([trace_file] or
    [sim-trace-seed-N.txt]) and return 3; return 0 when every seed
    passes.  With [mutation]: seeds run with the bug re-introduced and
    the meaning flips --- return 0 as soon as a seed {e catches} the
    bug (printing the seed so the catch is replayable), 3 if the
    budget runs dry.

    [span_out] writes the last seed's span trace (Chrome trace-event
    JSON; byte-identical across replays of that seed) and
    [metrics_out] the registry it left behind; either also prints an
    [\[obs\]] summary footer. *)

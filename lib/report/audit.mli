(** Differential self-checking of the fast simulators against the naive
    reference models ({!Vmbp_machine.Reference}).

    The harness has three layers:

    - {b Lockstep checking}: [dual_run] executes a cell once, feeding
      every dispatch and fetch event to both the production
      predictor/I-cache and the reference model, and stops at the first
      event where their answers differ.  [--self-check] routes every
      cell through it, and so does [explain], whose reference side
      attributes every event as it answers.  The live run and the replay
      of a recorded stream ([check_events]) compare each event with the
      same step.
    - {b Divergence minimization}: on a mismatch, the engine run is
      repeated with event recording, and [shrink] binary-searches the
      stream for the smallest prefix that still diverges.  The result is
      written as a standalone repro artifact replayable by
      [bin/main.exe audit-repro] (and by [replay_repro] in tests).
    - {b Sampled cross-checks}: [sampled] makes the deterministic
      per-cell decision behind [--audit-sample], which re-runs a
      fraction of trace-replay/memo-served cells directly and compares
      results.

    Divergences accumulate in a {!log} that the caller creates for one
    run and shares with all of the run's workers; the CLI reads it for
    the [vmbp-cells/8] JSON counters and the exit code. *)

open Vmbp_core
open Vmbp_machine

(** {1 Events and counters} *)

type event =
  | Dispatch of { branch : int; target : int; opcode : int; vm_transfer : bool }
  | Fetch of { addr : int; bytes : int; opcode : int }
(** A fetch's [opcode] is the VM opcode executing, for attribution.  Repro
    artifacts do not store it: a fetch loaded from one reads [-1]. *)

(** Running totals of one simulator side.  Conservation invariants:
    [predictions = pred_hits + mispredicts] and
    [icache_fetches = icache_hits + icache_misses]. *)
type counters = {
  predictions : int;
  pred_hits : int;
  mispredicts : int;
  vm_branch_mispredicts : int;
  icache_fetches : int;
  icache_hits : int;
  icache_misses : int;
}

val zero_counters : counters
val pp_counters : counters -> string

(** {1 Simulators} *)

(** One simulator behind a uniform face: answer dispatch/fetch events
    one at a time, keeping running counters.  [sim_fetch] returns the
    (hits, misses) contribution of that fetch. *)
type sim = {
  sim_predict : branch:int -> target:int -> opcode:int -> bool;
  sim_fetch : addr:int -> bytes:int -> opcode:int -> int * int;
  sim_counters : unit -> counters;
}

val counting :
  predict:(branch:int -> target:int -> opcode:int -> bool) ->
  fetch:(addr:int -> bytes:int -> opcode:int -> int * int) ->
  sim
(** A simulator from its answers -- whether a dispatch was predicted, a
    fetch's (hits, misses) -- with [sim_counters] totalling them.  Its
    [vm_branch_mispredicts] stays 0: the checker, which sees
    [vm_transfer], patches it in. *)

val fast_sim : predictor:Predictor.kind -> icache:Icache.config -> sim
(** The production simulators ({!Predictor}, {!Icache}). *)

val reference_sim : predictor:Predictor.kind -> icache:Icache.config -> sim
(** The naive oracles ({!Reference}). *)

(** {1 Divergences} *)

type divergence = {
  d_cell : string;
  d_predictor : Predictor.kind;
  d_icache : Icache.config;
  d_index : int;  (** first divergent event; [-1] for result-level mismatches *)
  d_event : event option;
  d_fast : counters;  (** fast-side counters after the divergent event *)
  d_reference : counters;
  d_detail : string;
  d_artifact : string option;
}

val describe : divergence -> string

(** {1 Lockstep dual run} *)

val dual_run :
  ?fuel:int ->
  ?fast:sim ->
  ?reference:sim ->
  cell:string ->
  config:Config.t ->
  layout:Code_layout.t ->
  exec:Engine.exec ->
  unit ->
  (Engine.result, divergence) result
(** Execute one cell, checking every event.  On agreement the result is
    exactly what {!Engine.run} would produce.  [?fast] substitutes the
    fast side (mutation tests inject deliberately broken simulators);
    [?reference] the reference side (explain's attributing one, which
    must answer as {!reference_sim} does). *)

(** {1 Recording, shrinking, artifacts} *)

val max_artifact_events : int

val record_events :
  ?fuel:int -> ?limit:int -> layout:Code_layout.t -> exec:Engine.exec ->
  unit -> event array
(** Re-run the engine, capturing the first [limit] events. *)

val check_events :
  ?fast:sim ->
  ?reference:sim ->
  predictor:Predictor.kind ->
  icache:Icache.config ->
  event array ->
  (int * string * counters * counters) option
(** Replay a stream through two fresh simulators; the first divergent
    index with a description and both sides' counters, or [None]. *)

val shrink :
  ?fast_maker:(unit -> sim) ->
  predictor:Predictor.kind ->
  icache:Icache.config ->
  event array ->
  event array option
(** Smallest prefix that still diverges (binary search), or [None] if
    the full stream does not diverge. *)

type repro = {
  r_cell : string;
  r_predictor : Predictor.kind;
  r_icache : Icache.config;
  r_index : int;
  r_detail : string;
  r_fast : counters;
  r_reference : counters;
  r_events : event array;
}

val write_repro : path:string -> divergence -> event array -> unit
val load_repro : string -> (repro, string) result

val replay_repro :
  ?fast:sim -> ?reference:sim -> repro ->
  (int * string * counters * counters) option
(** Replay a loaded artifact; [None] means fast and reference now agree
    on the recorded stream (the recorded bug no longer reproduces). *)

(** {1 Divergence log} *)

type log
(** One run's divergences and the directory its repro artifacts go to.
    Safe to share between domains. *)

val create_log : repro_dir:string -> log
(** An empty log whose artifacts are written into [repro_dir], which the
    first artifact creates, parents included, if it is missing. *)

val record_divergence :
  ?fast_maker:(unit -> sim) -> ?events:event array -> log -> divergence ->
  divergence
(** Minimize [events], write the repro artifact, and add the divergence
    (returned with [d_artifact] filled in) to the log. *)

val divergence_count : log -> int
val divergences : log -> divergence list
(** In the order they were recorded. *)

(** {1 Sampling} *)

val sampled : key:string -> rate:float -> bool
(** Deterministic, machine-independent per-cell sampling decision for
    [--audit-sample]: hashes [key] to a point in [0, 1) and compares it
    to [rate]. *)

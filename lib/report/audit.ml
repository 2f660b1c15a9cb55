open Vmbp_core
open Vmbp_machine

(* ------------------------------------------------------------------ *)
(* Events and counters *)

type event =
  | Dispatch of { branch : int; target : int; opcode : int; vm_transfer : bool }
  | Fetch of { addr : int; bytes : int; opcode : int }

type counters = {
  predictions : int;
  pred_hits : int;
  mispredicts : int;
  vm_branch_mispredicts : int;
  icache_fetches : int;
  icache_hits : int;
  icache_misses : int;
}

let zero_counters =
  {
    predictions = 0;
    pred_hits = 0;
    mispredicts = 0;
    vm_branch_mispredicts = 0;
    icache_fetches = 0;
    icache_hits = 0;
    icache_misses = 0;
  }

let pp_counters c =
  Printf.sprintf
    "predictions=%d hits=%d mispredicts=%d vm-mispredicts=%d fetches=%d \
     icache-hits=%d icache-misses=%d"
    c.predictions c.pred_hits c.mispredicts c.vm_branch_mispredicts
    c.icache_fetches c.icache_hits c.icache_misses

(* ------------------------------------------------------------------ *)
(* Simulators behind a uniform face.

   A [sim] answers one dispatch or one fetch at a time and keeps its own
   running counters, so the checker can compare a fast simulator and a
   reference model event by event without knowing either's insides.  The
   fast constructor wraps the production {!Predictor}/{!Icache}; the
   reference constructor wraps {!Reference}.  Tests inject deliberately
   broken sims through the same face (mutation testing), and the explain
   command an attributing reference side. *)

type sim = {
  sim_predict : branch:int -> target:int -> opcode:int -> bool;
  sim_fetch : addr:int -> bytes:int -> opcode:int -> int * int;
      (* (hits, misses) contributed by this fetch *)
  sim_counters : unit -> counters;
}

let counting ~predict ~fetch =
  let predictions = ref 0 and pred_hits = ref 0 in
  let fetches = ref 0 and fetch_hits = ref 0 in
  {
    sim_predict =
      (fun ~branch ~target ~opcode ->
        let correct = predict ~branch ~target ~opcode in
        incr predictions;
        if correct then incr pred_hits;
        correct);
    sim_fetch =
      (fun ~addr ~bytes ~opcode ->
        let ((dh, dm) as answer) = fetch ~addr ~bytes ~opcode in
        fetches := !fetches + dh + dm;
        fetch_hits := !fetch_hits + dh;
        answer);
    sim_counters =
      (fun () ->
        {
          predictions = !predictions;
          pred_hits = !pred_hits;
          mispredicts = !predictions - !pred_hits;
          vm_branch_mispredicts = 0;
          icache_fetches = !fetches;
          icache_hits = !fetch_hits;
          icache_misses = !fetches - !fetch_hits;
        });
  }

let fast_sim ~predictor ~icache =
  let p = Predictor.create predictor in
  let ic = Icache.create icache in
  let hits = ref 0 and misses = ref 0 in
  counting
    ~predict:(fun ~branch ~target ~opcode ->
      Predictor.access p ~branch ~target ~opcode)
    ~fetch:(fun ~addr ~bytes ~opcode:_ ->
      let h0 = !hits and m0 = !misses in
      Icache.fetch ic ~addr ~bytes ~hits ~misses;
      (!hits - h0, !misses - m0))

let reference_sim ~predictor ~icache =
  let p = Reference.create_predictor predictor in
  let ic = Reference.create_icache icache in
  counting
    ~predict:(fun ~branch ~target ~opcode ->
      (Reference.access p ~branch ~target ~opcode).Reference.outcome
      = Reference.Hit)
    ~fetch:(fun ~addr ~bytes ~opcode:_ ->
      let hits, missed = Reference.fetch ic ~addr ~bytes in
      (hits, List.length missed))

(* ------------------------------------------------------------------ *)
(* Divergence records *)

type divergence = {
  d_cell : string;
  d_predictor : Predictor.kind;
  d_icache : Icache.config;
  d_index : int;  (** first divergent event; -1 for result-level mismatches *)
  d_event : event option;
  d_fast : counters;  (** fast-side counters after the divergent event *)
  d_reference : counters;
  d_detail : string;
  d_artifact : string option;  (** path of the written repro file, if any *)
}

let describe d =
  Printf.sprintf "%s: %s (event %d)\n  fast:      %s\n  reference: %s%s"
    d.d_cell d.d_detail d.d_index (pp_counters d.d_fast)
    (pp_counters d.d_reference)
    (match d.d_artifact with
    | Some p -> "\n  repro: " ^ p
    | None -> "")

(* ------------------------------------------------------------------ *)
(* The per-event comparison, shared by the live lockstep run and the
   replay of a recorded stream so the two cannot drift apart. *)

(* Both sides, and each side's mispredicts out of a VM-level transfer,
   which [counting] cannot see. *)
type lockstep = {
  fast : sim;
  refr : sim;
  mutable fast_vm : int;
  mutable ref_vm : int;
}

let lockstep ?fast ?reference ~predictor ~icache () =
  {
    fast =
      (match fast with Some s -> s | None -> fast_sim ~predictor ~icache);
    refr =
      (match reference with
      | Some s -> s
      | None -> reference_sim ~predictor ~icache);
    fast_vm = 0;
    ref_vm = 0;
  }

(* Both sides' counters, VM-transfer mispredicts patched in. *)
let counters l =
  ( { (l.fast.sim_counters ()) with vm_branch_mispredicts = l.fast_vm },
    { (l.refr.sim_counters ()) with vm_branch_mispredicts = l.ref_vm } )

(* One event through both sides: how their answers differ, if they do. *)
let step l = function
  | Dispatch { branch; target; opcode; vm_transfer } ->
      let pf = l.fast.sim_predict ~branch ~target ~opcode in
      let pr = l.refr.sim_predict ~branch ~target ~opcode in
      if vm_transfer then begin
        if not pf then l.fast_vm <- l.fast_vm + 1;
        if not pr then l.ref_vm <- l.ref_vm + 1
      end;
      if pf = pr then None
      else
        Some
          (Printf.sprintf
             "dispatch of branch %#x -> %#x (opcode %d): fast predicted %s, \
              reference predicted %s"
             branch target opcode
             (if pf then "hit" else "miss")
             (if pr then "hit" else "miss"))
  | Fetch { addr; bytes; opcode } ->
      let fh, fm = l.fast.sim_fetch ~addr ~bytes ~opcode in
      let rh, rm = l.refr.sim_fetch ~addr ~bytes ~opcode in
      if fh = rh && fm = rm then None
      else
        Some
          (Printf.sprintf
             "fetch of %d bytes at %#x: fast %d hits / %d misses, reference \
              %d hits / %d misses"
             bytes addr fh fm rh rm)

(* ------------------------------------------------------------------ *)
(* Lockstep dual run *)

exception Diverged_at of divergence

(* Run the engine once, feeding every dispatch and fetch to both
   simulators and stopping at the first event where their answers
   differ.  On agreement the returned result is exactly what
   [Engine.run] would have produced: the fast side here IS the
   production predictor and I-cache (unless a test injects [?fast]). *)
let dual_run ?fuel ?poll ?fast ?reference ~cell ~config ~layout ~exec () =
  let cpu = config.Config.cpu in
  let predictor = Config.predictor_kind config in
  let icache = cpu.Cpu_model.icache in
  let l = lockstep ?fast ?reference ~predictor ~icache () in
  let index = ref 0 in
  let check event =
    match step l event with
    | None -> incr index
    | Some detail ->
        let d_fast, d_reference = counters l in
        raise
          (Diverged_at
             {
               d_cell = cell;
               d_predictor = predictor;
               d_icache = icache;
               d_index = !index;
               d_event = Some event;
               d_fast;
               d_reference;
               d_detail = detail;
               d_artifact = None;
             })
  in
  let sink =
    {
      Engine.on_dispatch =
        (fun ~branch ~target ~opcode ~vm_transfer ->
          check (Dispatch { branch; target; opcode; vm_transfer }));
      on_fetch =
        (fun ~addr ~bytes ~opcode -> check (Fetch { addr; bytes; opcode }));
    }
  in
  let m = Metrics.create () in
  match Engine.run_events ?fuel ?poll ~metrics:m ~layout ~exec ~sink () with
  | steps, trapped ->
      (* The fast side's counters are [Engine.run]'s. *)
      let c, _ = counters l in
      m.Metrics.mispredicts <- c.mispredicts;
      m.Metrics.vm_branch_mispredicts <- c.vm_branch_mispredicts;
      m.Metrics.icache_fetches <- c.icache_fetches;
      m.Metrics.icache_misses <- c.icache_misses;
      m.Metrics.code_bytes <- layout.Code_layout.runtime_code_bytes;
      Ok
        {
          Engine.metrics = m;
          cycles = Cpu_model.cycles cpu m;
          seconds = Cpu_model.seconds cpu m;
          steps;
          trapped;
        }
  | exception Diverged_at d -> Error d

(* ------------------------------------------------------------------ *)
(* Event recording (for shrinking and repro artifacts) *)

exception Recorded_enough

(* Largest event stream a repro artifact may hold.  A divergence deeper
   than this still fails the cell with full counters; it just ships
   without a replayable file. *)
let max_artifact_events = 1 lsl 22

let record_events ?fuel ?(limit = max_int) ~layout ~exec () =
  let m = Metrics.create () in
  let events = ref [] in
  let count = ref 0 in
  let note ev =
    events := ev :: !events;
    incr count;
    if !count >= limit then raise Recorded_enough
  in
  let sink =
    {
      Engine.on_dispatch =
        (fun ~branch ~target ~opcode ~vm_transfer ->
          note (Dispatch { branch; target; opcode; vm_transfer }));
      on_fetch =
        (fun ~addr ~bytes ~opcode -> note (Fetch { addr; bytes; opcode }));
    }
  in
  (try ignore (Engine.run_events ?fuel ~metrics:m ~layout ~exec ~sink ())
   with Recorded_enough -> ());
  Array.of_list (List.rev !events)

(* Replay an event stream through two fresh simulators and return the
   first index where they disagree, with both sides' counters. *)
let check_events ?fast ?reference ~predictor ~icache events =
  let l = lockstep ?fast ?reference ~predictor ~icache () in
  let n = Array.length events in
  let rec scan i =
    if i >= n then None
    else
      match step l events.(i) with
      | None -> scan (i + 1)
      | Some detail ->
          let f, r = counters l in
          Some (i, detail, f, r)
  in
  scan 0

(* The smallest prefix of [events] that still diverges, by binary search:
   replaying a longer prefix can only add later events, so "prefix of
   length n diverges" is monotone in n. *)
let shrink ?fast_maker ~predictor ~icache events =
  let diverges n =
    let fast = Option.map (fun f -> f ()) fast_maker in
    check_events ?fast ~predictor ~icache (Array.sub events 0 n) <> None
  in
  if not (diverges (Array.length events)) then None
  else begin
    let lo = ref 1 and hi = ref (Array.length events) in
    (* Invariant: prefix of length !hi diverges; !lo - 1 does not. *)
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if diverges mid then hi := mid else lo := mid + 1
    done;
    Some (Array.sub events 0 !hi)
  end

(* ------------------------------------------------------------------ *)
(* Repro artifacts: a small line-based text format, one event per line *)

let repro_schema = "vmbp-audit-repro/1"

let predictor_to_line (k : Predictor.kind) =
  match k with
  | Predictor.Btb { Btb.entries; associativity; two_bit_counters } ->
      Printf.sprintf "btb %d %d %s" entries associativity
        (if two_bit_counters then "2bc" else "1bc")
  | Predictor.Two_level { Two_level.entries; history } ->
      Printf.sprintf "two-level %d %d" entries history
  | Predictor.Case_block entries -> Printf.sprintf "case-block %d" entries
  | Predictor.Perfect -> "perfect"
  | Predictor.Never -> "never"

let predictor_of_line line : Predictor.kind option =
  match String.split_on_char ' ' line with
  | [ "btb"; e; a; c ] -> (
      match (int_of_string_opt e, int_of_string_opt a, c) with
      | Some entries, Some associativity, "2bc" ->
          Some (Predictor.Btb { Btb.entries; associativity; two_bit_counters = true })
      | Some entries, Some associativity, "1bc" ->
          Some (Predictor.Btb { Btb.entries; associativity; two_bit_counters = false })
      | _ -> None)
  | [ "two-level"; e; h ] -> (
      match (int_of_string_opt e, int_of_string_opt h) with
      | Some entries, Some history -> Some (Predictor.Two_level { Two_level.entries; history })
      | _ -> None)
  | [ "case-block"; e ] ->
      Option.map (fun entries -> Predictor.Case_block entries) (int_of_string_opt e)
  | [ "perfect" ] -> Some Predictor.Perfect
  | [ "never" ] -> Some Predictor.Never
  | _ -> None

let counters_to_line c =
  Printf.sprintf "%d %d %d %d %d %d %d" c.predictions c.pred_hits c.mispredicts
    c.vm_branch_mispredicts c.icache_fetches c.icache_hits c.icache_misses

let counters_of_line line =
  match List.filter_map int_of_string_opt (String.split_on_char ' ' line) with
  | [ predictions; pred_hits; mispredicts; vm; fetches; hits; misses ] ->
      Some
        {
          predictions;
          pred_hits;
          mispredicts;
          vm_branch_mispredicts = vm;
          icache_fetches = fetches;
          icache_hits = hits;
          icache_misses = misses;
        }
  | _ -> None

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

let write_repro ~path d events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "%s\n" repro_schema;
      Printf.fprintf oc "cell %s\n" (String.escaped d.d_cell);
      Printf.fprintf oc "predictor %s\n" (predictor_to_line d.d_predictor);
      Printf.fprintf oc "icache %d %d %d\n" d.d_icache.Icache.size_bytes
        d.d_icache.Icache.line_bytes d.d_icache.Icache.associativity;
      Printf.fprintf oc "diverged %d\n" d.d_index;
      Printf.fprintf oc "detail %s\n" (String.escaped d.d_detail);
      Printf.fprintf oc "fast %s\n" (counters_to_line d.d_fast);
      Printf.fprintf oc "reference %s\n" (counters_to_line d.d_reference);
      Printf.fprintf oc "events %d\n" (Array.length events);
      Array.iter
        (fun ev ->
          match ev with
          | Dispatch { branch; target; opcode; vm_transfer } ->
              Printf.fprintf oc "D %d %d %d %d\n" branch target opcode
                (if vm_transfer then 1 else 0)
          | Fetch { addr; bytes; _ } ->
              Printf.fprintf oc "F %d %d\n" addr bytes)
        events)

let load_repro path =
  let parse () =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let line () = input_line ic in
        let field name =
          let l = line () in
          let prefix = name ^ " " in
          if String.length l < String.length prefix
             || String.sub l 0 (String.length prefix) <> prefix
          then failwith (Printf.sprintf "expected '%s' line" name)
          else String.sub l (String.length prefix)
                 (String.length l - String.length prefix)
        in
        if line () <> repro_schema then failwith "not a vmbp-audit-repro/1 file";
        let r_cell = Scanf.unescaped (field "cell") in
        let r_predictor =
          match predictor_of_line (field "predictor") with
          | Some p -> p
          | None -> failwith "bad predictor line"
        in
        let r_icache =
          match
            List.filter_map int_of_string_opt
              (String.split_on_char ' ' (field "icache"))
          with
          | [ size_bytes; line_bytes; associativity ] ->
              { Icache.size_bytes; line_bytes; associativity }
          | _ -> failwith "bad icache line"
        in
        let r_index =
          match int_of_string_opt (field "diverged") with
          | Some i -> i
          | None -> failwith "bad diverged line"
        in
        let r_detail = Scanf.unescaped (field "detail") in
        let r_fast =
          match counters_of_line (field "fast") with
          | Some c -> c
          | None -> failwith "bad fast counters"
        in
        let r_reference =
          match counters_of_line (field "reference") with
          | Some c -> c
          | None -> failwith "bad reference counters"
        in
        let n =
          match int_of_string_opt (field "events") with
          | Some n when n >= 0 && n <= max_artifact_events -> n
          | _ -> failwith "bad event count"
        in
        let r_events =
          Array.init n (fun _ ->
              match String.split_on_char ' ' (line ()) with
              | [ "D"; b; t; o; v ] -> (
                  match
                    ( int_of_string_opt b,
                      int_of_string_opt t,
                      int_of_string_opt o,
                      v )
                  with
                  | Some branch, Some target, Some opcode, ("0" | "1") ->
                      Dispatch { branch; target; opcode; vm_transfer = v = "1" }
                  | _ -> failwith "bad dispatch event")
              | [ "F"; a; b ] -> (
                  match (int_of_string_opt a, int_of_string_opt b) with
                  | Some addr, Some bytes -> Fetch { addr; bytes; opcode = -1 }
                  | _ -> failwith "bad fetch event")
              | _ -> failwith "bad event line")
        in
        {
          r_cell;
          r_predictor;
          r_icache;
          r_index;
          r_detail;
          r_fast;
          r_reference;
          r_events;
        })
  in
  match parse () with
  | r -> Ok r
  | exception Failure msg -> Error (Printf.sprintf "%s: %s" path msg)
  | exception End_of_file -> Error (Printf.sprintf "%s: truncated file" path)
  | exception Sys_error msg -> Error msg
  | exception Scanf.Scan_failure msg ->
      Error (Printf.sprintf "%s: %s" path msg)

let replay_repro ?fast ?reference r =
  check_events ?fast ?reference ~predictor:r.r_predictor ~icache:r.r_icache
    r.r_events

(* ------------------------------------------------------------------ *)
(* Divergence log: one per run, shared by all the run's workers *)

type log = {
  repro_dir : string;
  lock : Mutex.t;
  mutable recorded : divergence list;  (* newest first, under [lock] *)
  mutable artifact_seq : int;  (* under [lock] *)
}

let create_log ~repro_dir =
  { repro_dir; lock = Mutex.create (); recorded = []; artifact_seq = 0 }

let divergence_count log =
  Mutex.protect log.lock (fun () -> List.length log.recorded)

let divergences log = Mutex.protect log.lock (fun () -> List.rev log.recorded)

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' -> c
      | _ -> '_')
    s

(* Minimize the recorded stream, write the artifact into the log's
   directory (made if missing), and remember the divergence for the JSON
   summary and the exit code.
   [events] is the stream that reproduces [d] ([None] when no replayable
   stream exists, e.g. a replay-vs-direct mismatch at the result level);
   [fast_maker] lets mutation tests shrink against their broken sim. *)
let record_divergence ?fast_maker ?events log d =
  let artifact =
    match events with
    | None -> None
    | Some evs when Array.length evs = 0 -> None
    | Some evs -> (
        match
          shrink ?fast_maker ~predictor:d.d_predictor ~icache:d.d_icache evs
        with
        | None -> None
        | Some minimal ->
            let seq =
              Mutex.protect log.lock (fun () ->
                  log.artifact_seq <- log.artifact_seq + 1;
                  log.artifact_seq)
            in
            let path =
              Filename.concat log.repro_dir
                (Printf.sprintf "vmbp-divergence-%d-%s.repro" seq
                   (sanitize d.d_cell))
            in
            (try
               Vmbp_sim.Env.mkdir_p Vmbp_sim.Env.real log.repro_dir;
               write_repro ~path d minimal;
               Some path
             with Sys_error _ | Unix.Unix_error _ -> None))
  in
  let d = { d with d_artifact = artifact } in
  Mutex.protect log.lock (fun () -> log.recorded <- d :: log.recorded);
  d

(* ------------------------------------------------------------------ *)
(* Deterministic sampling for [--audit-sample] *)

(* Keyed on the cell key alone (not on job count or scheduling order), so
   the same cells are audited on every run of the same grid on any
   machine.  The MD5 prefix is mapped to [0, 1). *)
let sampled ~key ~rate =
  if rate <= 0.0 then false
  else if rate >= 1.0 then true
  else begin
    let digest = Digest.string ("vmbp-audit-sample/" ^ key) in
    let v = ref 0 in
    for i = 0 to 6 do
      v := (!v lsl 8) lor Char.code digest.[i]
    done;
    let unit = float_of_int !v /. float_of_int (1 lsl 56) in
    unit < rate
  end

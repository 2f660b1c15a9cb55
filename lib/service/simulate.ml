module P = Protocol
module Env = Vmbp_sim.Env
module Sim = Vmbp_sim.Sim_env
module PR = Vmbp_report.Par_runner
module Store = Vmbp_store.Store
module Sjson = Vmbp_store.Sjson

(* ------------------------------------------------------------------ *)
(* Mutation teeth *)

type mutation = Ack_before_fsync | No_dir_fsync

let mutation_name = function
  | Ack_before_fsync -> "ack-before-fsync"
  | No_dir_fsync -> "no-dir-fsync"

let mutations =
  List.map (fun m -> (mutation_name m, m)) [ Ack_before_fsync; No_dir_fsync ]

let mutation_names = List.map fst mutations

let set_mutation m =
  Store.mutation_skip_fsync := m = Some Ack_before_fsync;
  Store.mutation_skip_dir_fsync := m = Some No_dir_fsync

(* ------------------------------------------------------------------ *)
(* The query universe: cheap cells only (gray at scale 1 is the same
   fast configuration the service tests use), over two dynamic
   techniques and three CPU models so coalescing and compute batches
   still get variety. *)

let cell_universe =
  lazy
    (let cpus =
       match Vmbp_machine.Cpu_model.all with
       | a :: b :: c :: _ -> [ a; b; c ]
       | l -> l
     in
     List.concat_map
       (fun (cpu : Vmbp_machine.Cpu_model.t) ->
         List.map
           (fun tech ->
             P.query_payload ~vm:"forth" ~workload:"gray"
               ~technique:(Vmbp_core.Technique.name tech)
               ~cpu:cpu.Vmbp_machine.Cpu_model.name ~scale:1 ())
           [ Vmbp_core.Technique.switch; Vmbp_core.Technique.subroutine ])
       cpus)

let grid_payload = P.obj [ ("verb", P.S "grid"); ("scale", P.I 1) ]
let shutdown_payload = P.obj [ ("verb", P.S "shutdown") ]

let key_fp payload =
  match P.request_of_payload payload with
  | Ok (P.Query c) -> (PR.store_key c, PR.config_fingerprint c)
  | Ok _ | Error _ -> invalid_arg "simulate: universe payload did not resolve"

(* Deterministic request ids: seed, client, plan index.  Resends reuse
   the id (they are the same request), so the span path of an acked rid
   is well-defined and byte-stable across replays of a seed. *)
let rid_for ~seed ~client ~idx = Printf.sprintf "s%d-c%d-r%d" seed client idx

(* ------------------------------------------------------------------ *)
(* Reply normalization and grid signatures *)

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1) in
  go from

let replace_all ~sub ~by s =
  let b = Buffer.create (String.length s) in
  let m = String.length sub in
  let rec go i =
    match find_sub s sub i with
    | -1 -> Buffer.add_substring b s i (String.length s - i)
    | j ->
        Buffer.add_substring b s i (j - i);
        Buffer.add_string b by;
        go (j + m)
  in
  go 0;
  Buffer.contents b

(* Replies echo the request id of whichever waiter they were flushed to;
   two schedules (and two waiters coalesced onto one compute) differ in
   rids while serving identical results, so normalization strips the
   echo.  The rid is always the last field ({!Protocol.with_rid} splices
   it before the closing brace at send time). *)
let strip_rid payload =
  let marker = ",\"rid\":\"" in
  let n = String.length payload in
  let rec last i best =
    match find_sub payload marker i with
    | -1 -> best
    | j -> last (j + 1) (Some j)
  in
  match last 0 None with
  | None -> payload
  | Some i ->
      let v0 = i + String.length marker in
      if
        n >= v0 + 2
        && payload.[n - 1] = '}'
        && payload.[n - 2] = '"'
        && not (String.contains (String.sub payload v0 (n - 2 - v0)) '"')
      then String.sub payload 0 i ^ "}"
      else payload

(* A served result must be numerically identical whether it was just
   computed or replayed from the store; only the provenance tag (and the
   rid echo) may differ between schedules. *)
let normalize_reply payload =
  replace_all ~sub:"\"source\":\"store\"" ~by:"\"source\":\"computed\""
    (strip_rid payload)

(* The per-cell prefix of a grid document row: tag through code_bytes,
   i.e. every deterministic field.  The fields after ["mode"] (attempt
   counts, wall/serve seconds) and the document header (registry
   counters, store stats) legitimately vary with the schedule, so
   invariant 2 compares the sorted multiset of these prefixes. *)
let grid_signature doc =
  let out = ref [] in
  let pos = ref 0 in
  let continue = ref true in
  while !continue do
    match find_sub doc "{\"tag\":" !pos with
    | -1 -> continue := false
    | s -> (
        match find_sub doc ",\"mode\":" s with
        | -1 -> continue := false
        | e ->
            out := String.sub doc s (e - s) :: !out;
            pos := e)
  done;
  List.sort compare !out

(* ------------------------------------------------------------------ *)
(* Cross-schedule reference tables (invariant 2 / 4), one per [run]: the
   first schedule to serve a cell or load an entry records the
   reference, every later schedule must agree. *)

type references = {
  replies : (string, string) Hashtbl.t;
  mutable grid : string list option;
  entries : (string * string, Vmbp_store.Cellrec.entry) Hashtbl.t;
}

let references () =
  { replies = Hashtbl.create 64; grid = None; entries = Hashtbl.create 256 }

(* ------------------------------------------------------------------ *)
(* One seeded schedule *)

type outcome = {
  o_seed : int;
  o_failures : string list;
  o_crashes : int;
  o_acks : int;
  o_grids : int;
  o_vtime : float;
  o_selects : int;
  o_trace : string;
}

type client = {
  c_id : int;
  c_plan : string array;
  mutable c_idx : int;
  mutable c_conn : Sim.conn option;
  mutable c_buf : string;
  mutable c_tries : int;  (* retries of the current request *)
  mutable c_conn_tries : int;
  mutable c_epoch : int;
      (* bumped on every state transition; scheduled resends capture it
         and no-op when stale, so at most one send per request is ever
         in flight (an EOF resend racing a degraded-retry resend would
         otherwise double-send and shift reply attribution by one). *)
  mutable c_done : bool;
}

let sock_path = "/sim/report.sock"
let store_dir = "/sim/store"

let run_seed ?mutation refs seed =
  set_mutation mutation;
  let w = Sim.create ~seed () in
  let failures = ref [] in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Sim.tracef w "FAIL %s" m;
        failures := m :: !failures)
      fmt
  in
  let acks = ref 0 and grids = ref 0 in
  (* store_key -> normalized reply, for every ack of this schedule *)
  let acked : (string, string * string) Hashtbl.t = Hashtbl.create 16 in
  (* rid -> store_key for every acked query; grid rids separately.  Fed
     to the invariant-5 span-path check after the schedule drains. *)
  let acked_rids : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let grid_rids = ref [] in

  (* -------- seeded schedule parameters (drawn before any event) ---- *)
  let chaos =
    let parts = ref [ Printf.sprintf "seed=%d" seed ] in
    if Sim.rand_float w < 0.7 then parts := "conn-drop=0.08" :: !parts;
    if Sim.rand_float w < 0.4 then parts := "slow-client=0.05@6.0" :: !parts;
    if Sim.rand_float w < 0.3 then parts := "pool-wedge=1@3.0" :: !parts;
    String.concat "," !parts
  in
  let n_clients = 1 + Sim.rand_int w 3 in
  let include_grid = mutation = None && seed mod 7 = 3 in
  let universe = Array.of_list (Lazy.force cell_universe) in
  let plan_for i =
    let n = 2 + Sim.rand_int w 5 in
    let reqs = ref [] in
    for _ = 1 to n do
      reqs := universe.(Sim.rand_int w (Array.length universe)) :: !reqs
    done;
    let reqs = List.rev !reqs in
    let reqs = if include_grid && i = 0 then reqs @ [ grid_payload ] else reqs in
    Array.of_list
      (List.mapi
         (fun idx p -> P.with_rid p (rid_for ~seed ~client:i ~idx))
         reqs)
  in
  let clients =
    let a =
      Array.make n_clients
        { c_id = 0; c_plan = [||]; c_idx = 0; c_conn = None; c_buf = "";
          c_tries = 0; c_conn_tries = 0; c_epoch = 0; c_done = false }
    in
    for i = 0 to n_clients - 1 do
      a.(i) <-
        { c_id = i; c_plan = plan_for i; c_idx = 0; c_conn = None; c_buf = "";
          c_tries = 0; c_conn_tries = 0; c_epoch = 0; c_done = false }
    done;
    a
  in
  let crash_plan =
    let draw_crash biased_op =
      if biased_op || Sim.rand_float w < 0.5 then
        `After_writes (1 + Sim.rand_int w 6)
      else `At (0.8 +. (Sim.rand_float w *. 5.0))
    in
    match mutation with
    | Some No_dir_fsync ->
        (* The tooth needs: torn tail -> startup compaction -> fresh
           acks -> second crash rolling the un-fsynced renames back. *)
        ref [ draw_crash true; `At (1.5 +. (Sim.rand_float w *. 3.0)) ]
    | Some Ack_before_fsync ->
        ref [ `At (0.6 +. (Sim.rand_float w *. 3.0)) ]
    | _ ->
        let n = Sim.rand_int w 3 in
        let plan = ref [] in
        for _ = 1 to n do
          plan := draw_crash false :: !plan
        done;
        ref (List.rev !plan)
  in

  (* -------- per-schedule invariant checks ------------------------- *)
  let check_store tag =
    match Store.open_ store_dir with
    | exception e ->
        fail "%s: store load raised %s (invariant 4)" tag
          (Printexc.to_string e)
    | st ->
        Hashtbl.iter
          (fun key (fp, _) ->
            if not (Store.mem st ~key ~fingerprint:fp) then
              fail "%s: acked result missing from the store (invariant 1): %s"
                tag key)
          acked;
        Store.iter st (fun e ->
            let hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
            let printable c = Char.code c >= 32 && Char.code c < 127 in
            if
              String.length e.Vmbp_store.Cellrec.fingerprint <> 32
              || not (String.for_all hex e.Vmbp_store.Cellrec.fingerprint)
              || not (String.for_all printable e.Vmbp_store.Cellrec.key)
            then
              fail "%s: mis-framed record surfaced from the store (invariant 4)"
                tag
            else
              let id = (e.Vmbp_store.Cellrec.key, e.Vmbp_store.Cellrec.fingerprint) in
              match Hashtbl.find_opt refs.entries id with
              | Some e0 ->
                  if
                    compare e0.Vmbp_store.Cellrec.outcome
                      e.Vmbp_store.Cellrec.outcome
                    <> 0
                  then
                    fail
                      "%s: store entry for %s diverges across schedules \
                       (invariant 2)"
                      tag e.Vmbp_store.Cellrec.key
              | None -> Hashtbl.replace refs.entries id e);
        Store.close st
  in

  (* Invariant 5: every acked request left a complete, well-ordered span
     path behind -- parse, an admission decision, an [ok] flush, all
     linked by the request id -- and a request that went through the
     compute domain is covered by a [compute-batch] span naming its key
     (the cross-domain fan-in link a trace viewer follows). *)
  let check_spans () =
    let events = Vmbp_obs.Span.events () in
    let arg (e : Vmbp_obs.Span.event) k = List.assoc_opt k e.args in
    let spans rid name =
      List.filter
        (fun (e : Vmbp_obs.Span.event) -> e.name = name && e.trace = rid)
        events
    in
    List.iter
      (fun (e : Vmbp_obs.Span.event) ->
        if e.dur < 0.0 then
          fail "span %s has a negative duration (invariant 5)" e.name)
      events;
    Hashtbl.iter
      (fun rid key ->
        let parses = spans rid "parse" in
        let admits = spans rid "admit" in
        let oks =
          List.filter
            (fun e -> arg e "status" = Some "ok")
            (spans rid "flush")
        in
        if parses = [] || admits = [] || oks = [] then
          fail
            "acked %s lacks a complete parse/admit/flush span path \
             (%d parse, %d admit, %d ok-flush, invariant 5)"
            rid (List.length parses) (List.length admits) (List.length oks)
        else begin
          let first l =
            List.fold_left
              (fun a (e : Vmbp_obs.Span.event) -> Float.min a e.ts)
              infinity l
          in
          let last_end l =
            List.fold_left
              (fun a (e : Vmbp_obs.Span.event) -> Float.max a (e.ts +. e.dur))
              neg_infinity l
          in
          if not (first parses <= first admits && first admits <= last_end oks)
          then fail "span path for %s is out of order (invariant 5)" rid;
          let decided d =
            List.exists (fun e -> arg e "decision" = Some d) admits
          in
          if decided "store-hit" then ()
          else if not (decided "enqueue" || decided "coalesce") then
            fail "acked %s has no serving admission decision (invariant 5)" rid
          else if
            not
              (List.exists
                 (fun (e : Vmbp_obs.Span.event) ->
                   e.name = "compute-batch"
                   &&
                   match arg e "keys" with
                   | Some ks -> find_sub ks key 0 >= 0
                   | None -> false)
                 events)
          then
            fail
              "acked %s was enqueued but no compute-batch span covers its \
               key (invariant 5)"
              rid
        end)
      acked_rids;
    List.iter
      (fun rid ->
        if spans rid "compute-grid" = [] then
          fail "acked grid %s has no compute-grid span (invariant 5)" rid)
      (List.sort_uniq compare !grid_rids)
  in

  (* -------- the client / controller state machine ------------------ *)
  let shut_acked = ref false in
  let all_done () = Array.for_all (fun c -> c.c_done) clients in
  let req_rid cl =
    Option.value ~default:"" (P.rid_of_payload cl.c_plan.(cl.c_idx))
  in
  (* Every reply must echo the rid of the request it answers: a reply
     attributed to the wrong request (a double-send shifting the stream
     by one) now fails loudly instead of corrupting invariant 2. *)
  let check_echo cl fields =
    match Sjson.str_opt fields "rid" with
    | Some r when r <> req_rid cl ->
        fail "client %d: reply rid %S does not match request rid %S \
              (invariant 5)"
          cl.c_id r (req_rid cl)
    | Some _ -> ()
    | None ->
        fail "client %d: reply to %S lost its rid echo (invariant 5)" cl.c_id
          (req_rid cl)
  in
  let rec send_current cl =
    if not cl.c_done then
      match cl.c_conn with
      | Some conn ->
          Sim.tracef w "client %d: send req %d: %s" cl.c_id cl.c_idx
            cl.c_plan.(cl.c_idx);
          Sim.client_send w conn (P.encode_frame cl.c_plan.(cl.c_idx))
      | None -> try_connect cl
  and resched cl delay =
    (* Supersede any pending resend: only the latest scheduled
       send_current for this client may fire. *)
    cl.c_epoch <- cl.c_epoch + 1;
    let e = cl.c_epoch in
    Sim.after w delay (fun () ->
        if cl.c_epoch = e && not cl.c_done then send_current cl)
  and try_connect cl =
    if not cl.c_done then
      match Sim.client_connect w sock_path with
      | Error _ ->
          cl.c_conn_tries <- cl.c_conn_tries + 1;
          if cl.c_conn_tries > 300 then begin
            fail "client %d: gave up reconnecting" cl.c_id;
            finish_client cl
          end
          else
            let e = cl.c_epoch in
            Sim.after w
              (0.05 +. (Sim.rand_float w *. 0.3))
              (fun () -> if cl.c_epoch = e then try_connect cl)
      | Ok conn ->
          cl.c_conn <- Some conn;
          cl.c_conn_tries <- 0;
          cl.c_buf <- "";
          Sim.on_conn_event w conn (conn_event cl conn);
          send_current cl
  and conn_event cl conn = function
    | Some bytes -> (
        match cl.c_conn with
        | Some c when c == conn ->
            cl.c_buf <- cl.c_buf ^ bytes;
            drain cl
        | _ -> ())
    | None -> (
        (* EOF: conn-drop chaos, slow-reader drop, crash, or restart.
           Reconnect and resend the in-flight request. *)
        match cl.c_conn with
        | Some c when c == conn && not cl.c_done ->
            cl.c_conn <- None;
            resched cl (0.05 +. (Sim.rand_float w *. 0.35))
        | _ -> ())
  and drain cl =
    match P.peel ~max:(64 * 1024 * 1024) cl.c_buf with
    | `Frame (payload, rest) ->
        cl.c_buf <- rest;
        if not cl.c_done then handle_reply cl payload;
        drain cl
    | `Await -> ()
  and handle_reply cl payload =
    match Sjson.parse_line payload with
    | exception Sjson.Bad ->
        fail "client %d: unparseable reply" cl.c_id;
        advance cl
    | fields -> (
        check_echo cl fields;
        match Sjson.str_opt fields "status" with
        | Some "ok" when Sjson.str_opt fields "cells" <> None ->
            incr grids;
            grid_rids := req_rid cl :: !grid_rids;
            let signature =
              grid_signature (Option.get (Sjson.str_opt fields "cells"))
            in
            (match refs.grid with
            | Some s0 ->
                if s0 <> signature then
                  fail "grid document diverges across schedules (invariant 2)"
            | None -> refs.grid <- Some signature);
            advance cl
        | Some "ok" -> (
            match Sjson.str_opt fields "source" with
            | None ->
                fail "client %d: ok reply without source" cl.c_id;
                advance cl
            | Some _ ->
                incr acks;
                let key, fp = key_fp cl.c_plan.(cl.c_idx) in
                Hashtbl.replace acked_rids (req_rid cl) key;
                let norm = normalize_reply payload in
                (match Hashtbl.find_opt acked key with
                | Some (_, prev) when prev <> norm ->
                    fail "client %d: replies for one cell differ within a \
                          schedule (invariant 2): %s\n      was %s\n      got %s"
                      cl.c_id key prev norm
                | _ -> Hashtbl.replace acked key (fp, norm));
                (match Hashtbl.find_opt refs.replies key with
                | Some r when r <> norm ->
                    fail "reply diverges across schedules (invariant 2): %s\n\
                         \      was %s\n      got %s"
                      key r norm
                | Some _ -> ()
                | None -> Hashtbl.replace refs.replies key norm);
                advance cl)
        | Some ("degraded" | "overloaded" | "timeout") ->
            cl.c_tries <- cl.c_tries + 1;
            if cl.c_tries > 40 then begin
              fail "client %d: gave up after 40 retries" cl.c_id;
              advance cl
            end
            else resched cl (0.25 +. (Sim.rand_float w *. 0.75))
        | Some other ->
            fail "client %d: unexpected status %s" cl.c_id other;
            advance cl
        | None ->
            fail "client %d: reply without status" cl.c_id;
            advance cl)
  and advance cl =
    cl.c_idx <- cl.c_idx + 1;
    cl.c_tries <- 0;
    if cl.c_idx >= Array.length cl.c_plan then finish_client cl
    else resched cl (0.02 +. (Sim.rand_float w *. 0.38))
  and finish_client cl =
    cl.c_done <- true;
    (match cl.c_conn with Some c -> Sim.client_close w c | None -> ());
    cl.c_conn <- None;
    if all_done () then schedule_shutdown ()
  and schedule_shutdown () =
    Sim.after w (0.05 +. (Sim.rand_float w *. 0.2)) send_shutdown
  and send_shutdown () =
    if not !shut_acked then
      match Sim.client_connect w sock_path with
      | Error _ -> Sim.after w 0.3 send_shutdown
      | Ok conn ->
          let buf = ref "" in
          Sim.on_conn_event w conn (function
            | Some bytes -> (
                buf := !buf ^ bytes;
                match P.peel ~max:(1 lsl 20) !buf with
                | `Frame (payload, rest) ->
                    buf := rest;
                    let st =
                      match Sjson.parse_line payload with
                      | exception Sjson.Bad -> None
                      | fields -> Sjson.str_opt fields "status"
                    in
                    if st = Some "ok" then shut_acked := true
                    else fail "shutdown request was not acked: %s" payload
                | `Await -> ())
            | None -> if not !shut_acked then Sim.after w 0.25 send_shutdown);
          Sim.client_send w conn (P.encode_frame shutdown_payload)
  in

  (* -------- drive ------------------------------------------------- *)
  let prev_env = !Env.current in
  let finally () =
    Env.current := prev_env;
    Vmbp_obs.Span.disable ();
    Vmbp_report.Faults.reset ()
  in
  Fun.protect ~finally (fun () ->
      Env.current := Sim.env w;
      Vmbp_obs.Registry.reset ();
      (* Spans run on the virtual clock with ids reset per seed, so the
         trace of a seed is a pure function of the seed (invariant 2 for
         the observability layer itself).  That requires cold runner
         caches: a kept path or cached result from an earlier seed in
         this process would skip the live-run and walk spans the first
         run recorded. *)
      PR.clear_trace_cache ();
      PR.clear_result_cache ();
      Vmbp_obs.Span.enable ();
      (match Vmbp_report.Faults.configure chaos with
      | Ok () -> ()
      | Error e -> fail "bad chaos spec %S: %s" chaos e);
      Array.iter
        (fun cl ->
          Sim.after w (0.01 +. (Sim.rand_float w *. 0.2)) (fun () ->
              send_current cl))
        clients;
      let arm_next () =
        match !crash_plan with
        | [] -> ()
        | c :: rest ->
            crash_plan := rest;
            (match c with
            | `At d -> Sim.crash_at w (Sim.now w +. d)
            | `After_writes n -> Sim.crash_after_writes w n)
      in
      arm_next ();
      let cfg =
        {
          Service.socket = sock_path;
          store_dir;
          jobs = 1;
          admission = 8;
          request_timeout = 12.0;
          slow_reader_timeout = 2.0;
          degraded_after = 1.5;
          max_request_frame = 64 * 1024;
          verbose = false;
          quiet = true;
          trace_out = None;
          metrics_out = None;
          flight_dir = "/sim/flight";
        }
      in
      let rec serve_loop budget =
        match Service.serve cfg with
        | () -> if Sim.in_crash w then handle_crash budget
        | exception Sim.Crashed -> handle_crash budget
        | exception Sim.Stalled ->
            fail
              "liveness: schedule did not drain within %d selects (deadlock \
               or livelock, invariant 3)"
              (Sim.selects w)
        | exception e ->
            fail "serve raised %s" (Printexc.to_string e)
      and handle_crash budget =
        Sim.restart w;
        check_store (Printf.sprintf "after crash %d" (Sim.crashes w));
        if budget <= 0 then fail "crash budget exceeded"
        else begin
          arm_next ();
          shut_acked := false;
          if all_done () then schedule_shutdown ();
          serve_loop (budget - 1)
        end
      in
      serve_loop 4;
      if !failures = [] then begin
        if not (all_done ()) then
          fail "server exited with unfinished clients (invariant 3)";
        if Sim.now w > 300.0 then
          fail "schedule overran the virtual-time bound (%.1fs, invariant 3)"
            (Sim.now w);
        check_store "final";
        check_spans ()
      end);
  {
    o_seed = seed;
    o_failures = List.rev !failures;
    o_crashes = Sim.crashes w;
    o_acks = !acks;
    o_grids = !grids;
    o_vtime = Sim.now w;
    o_selects = Sim.selects w;
    o_trace = Sim.trace_contents w;
  }

(* ------------------------------------------------------------------ *)
(* The seed-sweep driver behind [simulate] *)

let dump_trace ~trace_file outcome =
  let path =
    match trace_file with
    | Some p -> p
    | None -> Printf.sprintf "sim-trace-seed-%d.txt" outcome.o_seed
  in
  (try
     let oc = open_out path in
     output_string oc outcome.o_trace;
     close_out oc;
     Printf.printf "schedule trace written to %s\n" path
   with Sys_error e -> Printf.printf "could not write trace: %s\n" e);
  path

let print_failure ~trace_file outcome =
  Printf.printf "FAILED seed=%d (%d crashes, %d acks, virtual time %.2fs)\n"
    outcome.o_seed outcome.o_crashes outcome.o_acks outcome.o_vtime;
  List.iter (fun m -> Printf.printf "  - %s\n" m) outcome.o_failures;
  let _ = dump_trace ~trace_file outcome in
  Printf.printf "replay with: vmbp simulate --seed %d\n" outcome.o_seed

let run ?(first_seed = 1) ?mutation ?trace_file ?span_out ?metrics_out ~seeds
    () =
  let refs = references () in
  let finally () = set_mutation None in
  (* Observability exports cover the last seed that ran: its span trace
     (byte-identical across replays of the same seed), still in [Span],
     and the registry it left behind. *)
  let write_artifacts (last : outcome option) =
    Option.iter
      (fun o ->
        Vmbp_obs.Export.finish ?spans:span_out ?metrics:metrics_out (fun () ->
            Printf.sprintf
              "[obs] seed=%d acks=%d grids=%d crashes=%d selects=%d \
               vtime=%.2fs"
              o.o_seed o.o_acks o.o_grids o.o_crashes o.o_selects o.o_vtime))
      last
  in
  Fun.protect ~finally (fun () ->
      match mutation with
      | None ->
          let failed = ref None in
          let last = ref None in
          let crashes = ref 0 and acks = ref 0 and grids = ref 0 in
          let i = ref 0 in
          while !failed = None && !i < seeds do
            let seed = first_seed + !i in
            let o = run_seed refs seed in
            last := Some o;
            crashes := !crashes + o.o_crashes;
            acks := !acks + o.o_acks;
            grids := !grids + o.o_grids;
            if o.o_failures <> [] then failed := Some o
            else if (!i + 1) mod 100 = 0 then begin
              Printf.printf
                "  %d/%d seeds ok (%d crashes, %d acks, %d grids so far)\n"
                (!i + 1) seeds !crashes !acks !grids;
              flush stdout
            end;
            incr i
          done;
          write_artifacts !last;
          (match !failed with
          | Some o ->
              print_failure ~trace_file o;
              3
          | None ->
              Printf.printf
                "simulate: %d seeds passed (%d crashes survived, %d acks \
                 checked, %d grid documents compared)\n"
                seeds !crashes !acks !grids;
              0)
      | Some m ->
          let caught = ref None in
          let last = ref None in
          let i = ref 0 in
          while !caught = None && !i < seeds do
            let seed = first_seed + !i in
            let o = run_seed ~mutation:m refs seed in
            last := Some o;
            if o.o_failures <> [] then caught := Some o;
            incr i
          done;
          write_artifacts !last;
          (match !caught with
          | Some o ->
              Printf.printf
                "mutation %s caught by seed %d (%d of %d seeds):\n"
                (mutation_name m) o.o_seed !i seeds;
              List.iter (fun msg -> Printf.printf "  - %s\n" msg) o.o_failures;
              Printf.printf
                "replay with: vmbp simulate --seed %d --mutate %s\n" o.o_seed
                (mutation_name m);
              0
          | None ->
              Printf.printf
                "mutation %s NOT caught within %d seeds: the harness lost its \
                 teeth\n"
                (mutation_name m) seeds;
              3))

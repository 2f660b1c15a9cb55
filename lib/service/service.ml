open Vmbp_report
module P = Protocol
module Env = Vmbp_sim.Env

type config = {
  socket : string;
  store_dir : string;
  jobs : int;
  admission : int;
  request_timeout : float;
  slow_reader_timeout : float;
  degraded_after : float;
  max_request_frame : int;
  verbose : bool;
  quiet : bool;
  trace_out : string option;
  metrics_out : string option;
  flight_dir : string;
}

let default_config ~socket ~store_dir =
  {
    socket;
    store_dir;
    jobs = 1;
    admission = 64;
    request_timeout = 30.;
    slow_reader_timeout = 5.;
    degraded_after = 2.;
    max_request_frame = 64 * 1024;
    verbose = false;
    quiet = false;
    trace_out = None;
    metrics_out = None;
    flight_dir = ".";
  }

(* Registry instruments; the vmbp-cells/8 summary reads [coalesced],
   [shed] and [degraded_seconds] from here. *)
let m_requests = Vmbp_obs.Registry.counter "service.requests"
let m_coalesced = Vmbp_obs.Registry.counter "service.coalesced"
let m_shed = Vmbp_obs.Registry.counter "service.shed"
let m_degraded_refused = Vmbp_obs.Registry.counter "service.degraded_refused"
let m_request_timeouts = Vmbp_obs.Registry.counter "service.request_timeouts"
let m_conn_drops = Vmbp_obs.Registry.counter "service.conn_drops"
let m_slow_drops = Vmbp_obs.Registry.counter "service.slow_reader_drops"
let m_flight_dumps = Vmbp_obs.Registry.counter "service.flight_dumps"
let m_store_hits = Vmbp_obs.Registry.counter "service.store_hits"
let g_degraded = Vmbp_obs.Registry.gauge "service.degraded_seconds"
let g_connections = Vmbp_obs.Registry.gauge "service.connections"
let g_queue = Vmbp_obs.Registry.gauge "service.queue_depth"
let g_inflight = Vmbp_obs.Registry.gauge "service.inflight"

(* Per-verb and per-phase latency histograms, one labelled series per
   verb/phase ({!Vmbp_obs.Registry.to_prometheus} splits the label back
   out).  [histogram] re-fetches an existing instrument by name, so
   calling these per request is a hash lookup, not a re-registration. *)
let lat_bounds = [| 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.; 10.; 60. |]

let verb_hist verb =
  Vmbp_obs.Registry.histogram ~bounds:lat_bounds
    (Printf.sprintf "service.verb_seconds{verb=%s}" verb)

let phase_hist phase =
  Vmbp_obs.Registry.histogram ~bounds:lat_bounds
    (Printf.sprintf "service.phase_seconds{phase=%s}" phase)

(* The per-request context threaded from frame receive to reply flush:
   the client's request id (["" ] when it sent none), the resolved verb,
   and the receive timestamp.  This is what links the parse, admit and
   flush spans of one RPC and feeds the per-verb latency histogram. *)
type rctx = { r_rid : string; r_verb : string; r_recv : float }

(* ------------------------------------------------------------------ *)
(* Replies *)

let reply_status ?error status =
  P.obj
    (( "status", P.S status )
    :: (match error with Some e -> [ ("error", P.S e) ] | None -> []))

let payload_of_timed ~source (t : Par_runner.timed) =
  match t.outcome with
  | Ok r ->
      let m = r.Runner.result.Vmbp_core.Engine.metrics in
      P.obj
        [
          ("status", P.S "ok");
          ("source", P.S source);
          ("cycles", P.F r.Runner.result.Vmbp_core.Engine.cycles);
          ("seconds", P.F r.Runner.result.Vmbp_core.Engine.seconds);
          ("steps", P.I r.Runner.result.Vmbp_core.Engine.steps);
          ("vm_instrs", P.I m.Vmbp_machine.Metrics.vm_instrs);
          ("dispatches", P.I m.Vmbp_machine.Metrics.dispatches);
          ("mispredicts", P.I m.Vmbp_machine.Metrics.mispredicts);
          ( "mispredict_rate",
            P.F (Vmbp_machine.Metrics.misprediction_rate m) );
          ("icache_misses", P.I m.Vmbp_machine.Metrics.icache_misses);
          ("code_bytes", P.I m.Vmbp_machine.Metrics.code_bytes);
          ("output", P.S r.Runner.output);
        ]
  | Error msg -> reply_status ~error:msg "error"

let status_of_timed (t : Par_runner.timed) =
  match t.outcome with Ok _ -> "ok" | Error _ -> "error"

(* ------------------------------------------------------------------ *)
(* Event-loop <-> compute-pool plumbing *)

type job =
  (* in-flight key, request id of the enqueuing waiter, cell *)
  | J_cells of (string * string * Par_runner.cell) list
  | J_grid of { g_id : int; g_rid : string; g_scale : int option }
  | J_stop

type done_msg =
  (* in-flight key, reply payload, reply status *)
  | D_cells of (string * string * string) list
  | D_grid of { d_id : int; d_payload : string; d_status : string }

type busy_kind = Busy_cells | Busy_grid

type shared = {
  s_env : Env.t;
  lock : Mutex.t;
  cond : Condition.t;
  jobs : job Queue.t;
  mutable results : done_msg list;  (* newest first *)
  mutable busy : (float * busy_kind) option;
  wake_w : Env.fd;
  mutable pool : Env.pool option;
}

let wake sh =
  (* A full pipe just means wake-ups are already pending. *)
  try ignore (sh.s_env.Env.write sh.wake_w "!" 0 1)
  with Unix.Unix_error _ -> ()

let post sh msg =
  Mutex.lock sh.lock;
  sh.results <- msg :: sh.results;
  Mutex.unlock sh.lock;
  wake sh

let enqueue sh job =
  Mutex.lock sh.lock;
  Queue.push job sh.jobs;
  Condition.signal sh.cond;
  Mutex.unlock sh.lock;
  match sh.pool with Some p -> p.Env.kick () | None -> ()

(* The whole reproduction grid, run as one batch, as one vmbp-cells/8
   document of exactly the grid's cells.  The session log is drained too,
   so the query batches logged since the last grid do not pile up. *)
let grid_doc ctx store scale =
  let _, cells = Experiments.run_batch ~ctx ?scale ~store Experiments.all in
  ignore (Par_runner.drain_log ());
  Par_runner.json_summary ~ctx ~store cells

(* One compute-pool step: drain every queued job, merge the cell jobs
   into one batch (one [run_cells] call, so cells sharing a workload
   share one recorded execution), then run grids.  Any exception --
   including an injected worker death with no pool above it -- becomes an
   [error] reply for the batch, never a dead compute pool.  Results are
   published through [defer_done]: the real env runs the closure
   immediately (the pre-seam ordering, byte for byte), the simulated env
   schedules it a virtual latency later.  [block] is how the real domain
   parks on the condition variable; the simulation polls. *)
let compute_step ctx (env : Env.t) store sh ~block =
  Mutex.lock sh.lock;
  if block then
    while Queue.is_empty sh.jobs do
      Condition.wait sh.cond sh.lock
    done;
  if Queue.is_empty sh.jobs then begin
    Mutex.unlock sh.lock;
    `Idle
  end
  else begin
    let batch = ref [] in
    while not (Queue.is_empty sh.jobs) do
      batch := Queue.pop sh.jobs :: !batch
    done;
    let batch = List.rev !batch in
    let cells = List.concat_map (function J_cells l -> l | _ -> []) batch in
    let grids =
      List.filter_map
        (function
          | J_grid { g_id; g_rid; g_scale } -> Some (g_id, g_rid, g_scale)
          | _ -> None)
        batch
    in
    let stop = List.exists (function J_stop -> true | _ -> false) batch in
    sh.busy <-
      Some
        ( env.Env.now (),
          match cells with [] -> Busy_grid | _ -> Busy_cells );
    Mutex.unlock sh.lock;
    (* The pool-wedge chaos point: the compute pool stalls with work in
       hand, which is what the degradation detector keys on. *)
    (match Faults.pool_wedge () with
    | Some d -> env.Env.sleep d
    | None -> ());
    (match cells with
    | [] -> ()
    | _ ->
        let n = List.length cells in
        Vmbp_obs.Flight.note ~kind:"batch-start"
          (Printf.sprintf "cells=%d" n);
        (* The batch span fans in every request id it serves (waiters
           that coalesce onto the in-flight key after this point link
           through the key instead): one span on the compute domain's
           track, with the per-cell spans from the runner nesting
           beneath it. *)
        let results =
          Vmbp_obs.Span.with_ ~name:"compute-batch"
            ~args:
              [
                ("cells", string_of_int n);
                ("keys", String.concat ";" (List.map (fun (k, _, _) -> k) cells));
                ( "rids",
                  String.concat ";"
                    (List.filter_map
                       (fun (_, r, _) -> if r = "" then None else Some r)
                       cells) );
              ]
            (fun () ->
              match
                Par_runner.run_cells ~ctx ~store
                  (List.map (fun (_, _, c) -> c) cells)
              with
              | timeds ->
                  List.map2
                    (fun (k, _, _) t ->
                      ( k,
                        payload_of_timed ~source:"computed" t,
                        status_of_timed t ))
                    cells timeds
              | exception exn ->
                  let e =
                    reply_status ~error:(Printexc.to_string exn) "error"
                  in
                  List.map (fun (k, _, _) -> (k, e, "error")) cells)
        in
        Vmbp_obs.Flight.note ~kind:"batch-end" (Printf.sprintf "cells=%d" n);
        env.Env.defer_done (fun () -> post sh (D_cells results)));
    List.iter
      (fun (g_id, g_rid, g_scale) ->
        Vmbp_obs.Flight.note ~kind:"grid-start"
          (Printf.sprintf "grid=%d" g_id);
        let payload, status =
          Vmbp_obs.Span.with_ ~name:"compute-grid" ~trace:g_rid
            ~args:[ ("grid", string_of_int g_id) ]
            (fun () ->
              match grid_doc ctx store g_scale with
              | doc -> (P.obj [ ("status", P.S "ok"); ("cells", P.S doc) ], "ok")
              | exception exn ->
                  (reply_status ~error:(Printexc.to_string exn) "error", "error"))
        in
        Vmbp_obs.Flight.note ~kind:"grid-end" (Printf.sprintf "grid=%d" g_id);
        env.Env.defer_done (fun () ->
            post sh (D_grid { d_id = g_id; d_payload = payload; d_status = status })))
      grids;
    env.Env.defer_done (fun () ->
        Mutex.lock sh.lock;
        sh.busy <- None;
        Mutex.unlock sh.lock;
        (* Wake the event loop even with no results: busy-state changes
           feed the degradation detector and the drain condition. *)
        wake sh);
    if stop then `Stop else `Ran
  end

(* ------------------------------------------------------------------ *)
(* Connections *)

(* A reply waiting to clear the socket: once the connection's flushed
   byte count passes [f_target], the reply has fully left the process
   and its flush span + per-verb latency are recorded. *)
type flush_item = {
  f_rctx : rctx;
  f_status : string;
  f_enq : float;  (* when the reply was enqueued *)
  f_target : int;  (* conn.sent_bytes at which the reply is fully out *)
}

type conn = {
  fd : Env.fd;
  c_id : int;
  mutable inbuf : string;
  mutable outbuf : string;  (* unsent bytes only *)
  mutable stalled_until : float;  (* injected slow-client stall *)
  mutable last_progress : float;
  mutable closing : bool;  (* drop once outbuf drains *)
  mutable dropped : bool;
  mutable enq_bytes : int;  (* bytes ever enqueued *)
  mutable sent_bytes : int;  (* bytes ever flushed *)
  mutable flushq : flush_item list;  (* oldest first *)
}

type waiter = { w_conn : conn; w_rctx : rctx; w_deadline : float }

type state = {
  cfg : config;
  env : Env.t;
  store : Vmbp_store.Store.t;
  sh : shared;
  mutable conns : conn list;
  (* (store key \x00 fingerprint) -> waiters, newest first *)
  inflight : (string, waiter list ref) Hashtbl.t;
  grid_waiters : (int, waiter) Hashtbl.t;
  mutable grid_next : int;
  mutable conn_next : int;
  mutable flight_next : int;
  mutable shutting : bool;
  mutable deg_since : float option;
  started : float;
  rbuf : Bytes.t;
      (* [read_conn]'s scratch buffer, shared by every connection of this
         single-threaded loop: a fresh 64 KB buffer per read is a
         major-heap allocation, and at one per request it paced the
         major GC of a warm, store-hit-only daemon. *)
}

let signal_shutdown = Atomic.make false
let signal_dump = Atomic.make false

let ikey c = Par_runner.store_key c ^ "\x00" ^ Par_runner.config_fingerprint c

let logf st fmt =
  if st.cfg.verbose then Printf.eprintf ("[serve] " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

let drop_conn st conn =
  if not conn.dropped then begin
    conn.dropped <- true;
    Vmbp_obs.Flight.note ~kind:"conn-drop"
      (Printf.sprintf "conn=%d pending=%d" conn.c_id (List.length conn.flushq));
    conn.flushq <- [];
    (try st.env.Env.close conn.fd with Unix.Unix_error _ -> ());
    st.conns <- List.filter (fun c -> c != conn) st.conns
  end

(* Replies whose last byte has cleared the socket: record the flush span
   (reply enqueue -> fully written) and the end-to-end per-verb latency
   (frame receive -> fully written). *)
let flush_matured st conn =
  let now = st.env.Env.now () in
  let rec go = function
    | fi :: rest when fi.f_target <= conn.sent_bytes ->
        let rx = fi.f_rctx in
        Vmbp_obs.Span.interval ~trace:rx.r_rid
          ~args:[ ("verb", rx.r_verb); ("status", fi.f_status) ]
          ~name:"flush" fi.f_enq now;
        Vmbp_obs.Registry.observe (phase_hist "flush") (now -. fi.f_enq);
        Vmbp_obs.Registry.observe (verb_hist rx.r_verb) (now -. rx.r_recv);
        go rest
    | rest -> conn.flushq <- rest
  in
  go conn.flushq

let send st conn ?rctx ~status payload =
  if not conn.dropped then begin
    if Faults.conn_drop () then begin
      Vmbp_obs.Registry.add m_conn_drops 1;
      logf st "chaos: dropping connection instead of replying";
      drop_conn st conn
    end
    else begin
      (match Faults.slow_client () with
      | Some d ->
          logf st "chaos: stalling client writes for %gs" d;
          conn.stalled_until <- st.env.Env.now () +. d
      | None -> ());
      let now = st.env.Env.now () in
      if conn.outbuf = "" then conn.last_progress <- now;
      let payload =
        match rctx with
        | Some rx when rx.r_rid <> "" -> P.with_rid payload rx.r_rid
        | _ -> payload
      in
      let frame = P.encode_frame payload in
      conn.outbuf <- conn.outbuf ^ frame;
      conn.enq_bytes <- conn.enq_bytes + String.length frame;
      match rctx with
      | Some rx ->
          conn.flushq <-
            conn.flushq
            @ [
                {
                  f_rctx = rx;
                  f_status = status;
                  f_enq = now;
                  f_target = conn.enq_bytes;
                };
              ]
      | None -> ()
    end
  end

(* Degraded = the compute pool has been stuck on a *cell* batch longer
   than the threshold.  A grid run is legitimately long and does not
   count; its queued queries are answered when it finishes (or by the
   per-request deadline). *)
let degraded_now st now =
  Mutex.lock st.sh.lock;
  let busy = st.sh.busy in
  Mutex.unlock st.sh.lock;
  match busy with
  | Some (t0, Busy_cells) -> now -. t0 > st.cfg.degraded_after
  | _ -> false

let service_stats st now =
  let s = Vmbp_store.Store.stats st.store in
  let c = Vmbp_obs.Registry.count in
  let degraded_seconds =
    Vmbp_obs.Registry.gauge_value g_degraded
    +. (match st.deg_since with Some t0 -> now -. t0 | None -> 0.)
  in
  P.obj
    [
      ("status", P.S "ok");
      ("entries", P.I s.Vmbp_store.Store.entries);
      ("loaded", P.I s.Vmbp_store.Store.loaded);
      ("store_hits", P.I s.Vmbp_store.Store.served);
      ("store_misses", P.I s.Vmbp_store.Store.missed);
      ("appended", P.I s.Vmbp_store.Store.appended);
      ("write_errors", P.I s.Vmbp_store.Store.write_errors);
      ("corrupt", P.I s.Vmbp_store.Store.corrupt);
      ("compactions", P.I s.Vmbp_store.Store.compactions);
      ("requests", P.I (c "service.requests"));
      ("coalesced", P.I (c "service.coalesced"));
      ("shed", P.I (c "service.shed"));
      ("degraded_refused", P.I (c "service.degraded_refused"));
      ("request_timeouts", P.I (c "service.request_timeouts"));
      ("conn_drops", P.I (c "service.conn_drops"));
      ("slow_reader_drops", P.I (c "service.slow_reader_drops"));
      ("degraded_seconds", P.F degraded_seconds);
      ("inflight", P.I (Hashtbl.length st.inflight));
      ("connections", P.I (List.length st.conns));
      ("uptime_seconds", P.F (now -. st.started));
    ]

(* Write the flight recorder ring to [flight_dir/vmbp-flight-<reason>-<n>.json]
   through the environment's file ops, so simulated runs dump into the
   simulated filesystem deterministically.  Never raises: a dump is a
   diagnostic of last resort and must not take the server down (or mask
   the exception it is documenting). *)
let dump_flight st reason =
  let env = st.env in
  let n = st.flight_next in
  st.flight_next <- n + 1;
  try
    Env.mkdir_p env st.cfg.flight_dir;
    let path =
      Filename.concat st.cfg.flight_dir
        (Printf.sprintf "vmbp-flight-%s-%d.json" reason n)
    in
    let body = Vmbp_obs.Flight.to_json ~reason () in
    let fd =
      env.Env.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try env.Env.close fd with _ -> ())
      (fun () ->
        let len = String.length body in
        let rec go off =
          if off < len then go (off + env.Env.write fd body off (len - off))
        in
        go 0);
    Vmbp_obs.Registry.add m_flight_dumps 1;
    logf st "flight recorder dumped to %s (%s)" path reason;
    Some path
  with _ -> None

let refresh_gauges st =
  Mutex.lock st.sh.lock;
  let depth = Queue.length st.sh.jobs in
  Mutex.unlock st.sh.lock;
  Vmbp_obs.Registry.gauge_set g_queue (float_of_int depth);
  Vmbp_obs.Registry.gauge_set g_inflight
    (float_of_int (Hashtbl.length st.inflight));
  Vmbp_obs.Registry.gauge_set g_connections
    (float_of_int (List.length st.conns))

(* One admission decision, recorded as the request's "admit" span. *)
let admit st (rx : rctx) ?(args = []) decision t0 =
  let t1 = st.env.Env.now () in
  Vmbp_obs.Span.interval ~trace:rx.r_rid
    ~args:(("decision", decision) :: args)
    ~name:"admit" t0 t1;
  Vmbp_obs.Registry.observe (phase_hist "admit") (t1 -. t0)

let handle_request st conn rx req =
  let now = st.env.Env.now () in
  match req with
  | P.Health ->
      let state_name =
        if st.shutting then "draining"
        else if degraded_now st now then "degraded"
        else "serving"
      in
      admit st rx "inline" now;
      send st conn ~rctx:rx ~status:"ok"
        (P.obj
           [
             ("status", P.S "ok");
             ("state", P.S state_name);
             ("inflight", P.I (Hashtbl.length st.inflight));
           ])
  | P.Stats ->
      admit st rx "inline" now;
      send st conn ~rctx:rx ~status:"ok" (service_stats st now)
  | P.Metrics { format } ->
      refresh_gauges st;
      let fmt, body =
        match format with
        | `Json -> ("json", Vmbp_obs.Registry.to_json ())
        | `Prometheus -> ("prometheus", Vmbp_obs.Registry.to_prometheus ())
      in
      admit st rx "inline" now;
      send st conn ~rctx:rx ~status:"ok"
        (P.obj [ ("status", P.S "ok"); ("format", P.S fmt); ("body", P.S body) ])
  | P.Dump -> (
      admit st rx "inline" now;
      match dump_flight st "dump" with
      | Some path ->
          send st conn ~rctx:rx ~status:"ok"
            (P.obj
               [
                 ("status", P.S "ok");
                 ("path", P.S path);
                 ("entries", P.I (List.length (Vmbp_obs.Flight.entries ())));
                 ("recorded", P.I (Vmbp_obs.Flight.recorded ()));
               ])
      | None ->
          send st conn ~rctx:rx ~status:"error"
            (reply_status ~error:"flight dump failed" "error"))
  | P.Shutdown ->
      admit st rx "inline" now;
      send st conn ~rctx:rx ~status:"ok" (reply_status "ok");
      st.shutting <- true;
      Vmbp_obs.Flight.note ~kind:"shutdown"
        (Printf.sprintf "inflight=%d" (Hashtbl.length st.inflight));
      logf st "shutdown requested; draining %d in-flight key(s)"
        (Hashtbl.length st.inflight)
  | P.Grid { scale } ->
      if st.shutting || degraded_now st now then begin
        let status = if st.shutting then "overloaded" else "degraded" in
        admit st rx ~args:[ ("status", status) ] "refuse" now;
        send st conn ~rctx:rx ~status (reply_status status)
      end
      else begin
        let id = st.grid_next in
        st.grid_next <- id + 1;
        admit st rx ~args:[ ("grid", string_of_int id) ] "grid" now;
        (* Grid replies are exempt from the per-request deadline: the
           client asked for the whole reproduction and waits for it. *)
        Hashtbl.replace st.grid_waiters id
          { w_conn = conn; w_rctx = rx; w_deadline = infinity };
        enqueue st.sh (J_grid { g_id = id; g_rid = rx.r_rid; g_scale = scale })
      end
  | P.Query c -> (
      match Par_runner.store_lookup st.store c with
      | Some t ->
          Vmbp_obs.Registry.add m_store_hits 1;
          admit st rx "store-hit" now;
          send st conn ~rctx:rx ~status:(status_of_timed t)
            (payload_of_timed ~source:"store" t)
      | None ->
          if st.shutting then begin
            admit st rx ~args:[ ("status", "overloaded") ] "refuse" now;
            send st conn ~rctx:rx ~status:"overloaded"
              (reply_status "overloaded")
          end
          else if degraded_now st now then begin
            Vmbp_obs.Registry.add m_degraded_refused 1;
            admit st rx ~args:[ ("status", "degraded") ] "refuse" now;
            send st conn ~rctx:rx ~status:"degraded" (reply_status "degraded")
          end
          else begin
            let key = ikey c in
            let w =
              {
                w_conn = conn;
                w_rctx = rx;
                w_deadline = now +. st.cfg.request_timeout;
              }
            in
            match Hashtbl.find_opt st.inflight key with
            | Some ws ->
                ws := w :: !ws;
                Vmbp_obs.Registry.add m_coalesced 1;
                Vmbp_obs.Flight.note ~kind:"coalesce"
                  (Printf.sprintf "rid=%s waiters=%d" rx.r_rid
                     (List.length !ws));
                admit st rx ~args:[ ("key", key) ] "coalesce" now
            | None ->
                if Hashtbl.length st.inflight >= st.cfg.admission then begin
                  Vmbp_obs.Registry.add m_shed 1;
                  Vmbp_obs.Flight.note ~kind:"shed"
                    (Printf.sprintf "rid=%s inflight=%d" rx.r_rid
                       (Hashtbl.length st.inflight));
                  admit st rx ~args:[ ("status", "overloaded") ] "shed" now;
                  send st conn ~rctx:rx ~status:"overloaded"
                    (reply_status "overloaded")
                end
                else begin
                  Hashtbl.replace st.inflight key (ref [ w ]);
                  Vmbp_obs.Flight.note ~kind:"enqueue"
                    (Printf.sprintf "rid=%s inflight=%d" rx.r_rid
                       (Hashtbl.length st.inflight));
                  admit st rx ~args:[ ("key", key) ] "enqueue" now;
                  enqueue st.sh (J_cells [ (key, rx.r_rid, c) ])
                end
          end)

let handle_payload st conn payload =
  Vmbp_obs.Registry.add m_requests 1;
  let t0 = st.env.Env.now () in
  let rid = Option.value ~default:"" (P.rid_of_payload payload) in
  match P.request_of_payload payload with
  | Ok req ->
      let verb =
        match req with
        | P.Query _ -> "query"
        | P.Grid _ -> "grid"
        | P.Stats -> "stats"
        | P.Health -> "health"
        | P.Metrics _ -> "metrics"
        | P.Dump -> "dump"
        | P.Shutdown -> "shutdown"
      in
      let t1 = st.env.Env.now () in
      Vmbp_obs.Span.interval ~trace:rid
        ~args:[ ("verb", verb); ("conn", string_of_int conn.c_id) ]
        ~name:"parse" t0 t1;
      Vmbp_obs.Registry.observe (phase_hist "parse") (t1 -. t0);
      handle_request st conn { r_rid = rid; r_verb = verb; r_recv = t0 } req
  | Error msg ->
      let t1 = st.env.Env.now () in
      Vmbp_obs.Span.interval ~trace:rid
        ~args:[ ("error", msg); ("conn", string_of_int conn.c_id) ]
        ~name:"parse" t0 t1;
      Vmbp_obs.Registry.observe (phase_hist "parse") (t1 -. t0);
      send st conn
        ~rctx:{ r_rid = rid; r_verb = "invalid"; r_recv = t0 }
        ~status:"bad-request"
        (reply_status ~error:msg "bad-request")

let rec peel_frames st conn =
  if (not conn.dropped) && not conn.closing then
    match P.peel ~max:st.cfg.max_request_frame conn.inbuf with
    | `Frame (payload, rest) ->
        conn.inbuf <- rest;
        handle_payload st conn payload;
        peel_frames st conn
    | `Await -> ()
    | exception P.Oversized n ->
        (* Reject and hang up: the rest of the stream is unframeable. *)
        conn.inbuf <- "";
        send st conn ~status:"bad-request"
          (reply_status
             ~error:(Printf.sprintf "oversized frame (%d bytes)" n)
             "bad-request");
        conn.closing <- true

let read_conn st conn =
  let buf = st.rbuf in
  let rec go () =
    (* A closing connection is write-drain only: anything the client
       still sends after an oversize rejection is unframeable noise. *)
    if (not conn.dropped) && not conn.closing then
      match st.env.Env.read conn.fd buf 0 (Bytes.length buf) with
      | 0 -> drop_conn st conn
      | n ->
          conn.inbuf <- conn.inbuf ^ Bytes.sub_string buf 0 n;
          peel_frames st conn;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> drop_conn st conn
  in
  go ()

let write_conn st conn =
  match st.env.Env.write conn.fd conn.outbuf 0 (String.length conn.outbuf) with
  | n ->
      conn.outbuf <-
        String.sub conn.outbuf n (String.length conn.outbuf - n);
      conn.sent_bytes <- conn.sent_bytes + n;
      conn.last_progress <- st.env.Env.now ();
      flush_matured st conn;
      if conn.outbuf = "" && conn.closing then drop_conn st conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> drop_conn st conn

let accept_conns st listen_fd =
  let rec go () =
    match st.env.Env.accept listen_fd with
    | Some fd ->
        let now = st.env.Env.now () in
        let id = st.conn_next in
        st.conn_next <- id + 1;
        Vmbp_obs.Flight.note ~kind:"accept" (Printf.sprintf "conn=%d" id);
        Vmbp_obs.Span.interval
          ~args:[ ("conn", string_of_int id) ]
          ~name:"accept" now now;
        st.conns <-
          {
            fd;
            c_id = id;
            inbuf = "";
            outbuf = "";
            stalled_until = 0.;
            last_progress = now;
            closing = false;
            dropped = false;
            enq_bytes = 0;
            sent_bytes = 0;
            flushq = [];
          }
          :: st.conns;
        go ()
    | None -> ()
  in
  go ()

let distribute st = function
  | D_cells items ->
      List.iter
        (fun (key, payload, status) ->
          match Hashtbl.find_opt st.inflight key with
          | None -> ()
          | Some ws ->
              Hashtbl.remove st.inflight key;
              List.iter
                (fun w -> send st w.w_conn ~rctx:w.w_rctx ~status payload)
                (List.rev !ws))
        items
  | D_grid { d_id; d_payload; d_status } -> (
      match Hashtbl.find_opt st.grid_waiters d_id with
      | None -> ()
      | Some w ->
          Hashtbl.remove st.grid_waiters d_id;
          send st w.w_conn ~rctx:w.w_rctx ~status:d_status d_payload)

let reap st now =
  (* Per-request deadlines: expired waiters get a [timeout] reply; the
     compute keeps going and its result still lands in the store. *)
  Hashtbl.iter
    (fun _ ws ->
      let expired, live =
        List.partition (fun w -> now > w.w_deadline) !ws
      in
      if expired <> [] then begin
        ws := live;
        Vmbp_obs.Registry.add m_request_timeouts (List.length expired);
        Vmbp_obs.Flight.note ~kind:"timeout"
          (Printf.sprintf "waiters=%d" (List.length expired));
        List.iter
          (fun w ->
            send st w.w_conn ~rctx:w.w_rctx ~status:"timeout"
              (reply_status "timeout"))
          expired
      end)
    st.inflight;
  (* Slow readers: outbound bytes pending, no progress for too long. *)
  List.iter
    (fun conn ->
      if
        conn.outbuf <> ""
        && now -. conn.last_progress > st.cfg.slow_reader_timeout
      then begin
        Vmbp_obs.Registry.add m_slow_drops 1;
        logf st "dropping slow reader";
        drop_conn st conn
      end)
    st.conns

let update_degraded st now =
  let d = degraded_now st now in
  match (st.deg_since, d) with
  | None, true ->
      st.deg_since <- Some now;
      Vmbp_obs.Flight.note ~kind:"degraded-enter"
        (Printf.sprintf "inflight=%d" (Hashtbl.length st.inflight));
      (* Degradation entry is one of the flight recorder's dump
         triggers: the ring at this instant holds the transitions that
         led to the wedge. *)
      ignore (dump_flight st "degraded");
      logf st "compute pool wedged; degrading to store-only service"
  | Some t0, false ->
      Vmbp_obs.Registry.gauge_add g_degraded (now -. t0);
      st.deg_since <- None;
      Vmbp_obs.Flight.note ~kind:"degraded-exit"
        (Printf.sprintf "after=%.3fs" (now -. t0));
      logf st "compute pool recovered after %.2fs; serving misses again"
        (now -. t0)
  | _ -> ()

let drained st =
  st.shutting
  && Hashtbl.length st.inflight = 0
  && Hashtbl.length st.grid_waiters = 0
  && List.for_all (fun c -> c.outbuf = "") st.conns
  &&
  (Mutex.lock st.sh.lock;
   let idle = Queue.is_empty st.sh.jobs && st.sh.busy = None in
   Mutex.unlock st.sh.lock;
   idle)

let serve (cfg : config) =
  let env = !Env.current in
  let ctx = { (Par_runner.default_ctx ()) with jobs = max 1 cfg.jobs } in
  (* The store opens before the socket is bound, so a store that cannot be
     opened never unlinks another daemon's socket; a socket that cannot be
     bound then removes what opening the store created. *)
  let new_dirs = Env.missing_dirs env cfg.store_dir in
  let store_file = Vmbp_store.Store.file cfg.store_dir in
  let new_file = not (env.Env.file_exists store_file) in
  let store = Vmbp_store.Store.open_ cfg.store_dir in
  let listen_fd =
    try
      let corrupt = (Vmbp_store.Store.stats store).Vmbp_store.Store.corrupt in
      if corrupt > 0 then begin
        if not cfg.quiet then
          Printf.eprintf
            "[serve] store load skipped %d corrupt record(s); compacting\n%!"
            corrupt;
        Vmbp_store.Store.compact store
      end;
      (try env.Env.unlink cfg.socket with Unix.Unix_error _ -> ());
      env.Env.listen cfg.socket ~backlog:64
    with e ->
      Vmbp_store.Store.close store;
      if new_file then begin
        (try env.Env.unlink store_file with Unix.Unix_error _ -> ());
        List.iter
          (fun d -> try env.Env.rmdir d with Unix.Unix_error _ -> ())
          (List.rev new_dirs)
      end;
      raise e
  in
  let wake_r, wake_w = env.Env.pipe () in
  let sh =
    {
      s_env = env;
      lock = Mutex.create ();
      cond = Condition.create ();
      jobs = Queue.create ();
      results = [];
      busy = None;
      wake_w;
      pool = None;
    }
  in
  let st =
    {
      cfg;
      env;
      store;
      sh;
      conns = [];
      inflight = Hashtbl.create 64;
      grid_waiters = Hashtbl.create 4;
      grid_next = 0;
      conn_next = 0;
      flight_next = 0;
      shutting = false;
      deg_since = None;
      started = env.Env.now ();
      rbuf = Bytes.create 65536;
    }
  in
  (* Fresh-process semantics for the flight recorder.  Its entries and
     the spans read [Env.now], the clock of the deadlines and the flush
     bookkeeping above: virtual time under the simulator, which enables
     spans itself ([trace_out] stays [None] there). *)
  Vmbp_obs.Flight.reset ();
  Vmbp_obs.Flight.note ~kind:"listen" cfg.socket;
  if cfg.trace_out <> None then Vmbp_obs.Span.enable ();
  Atomic.set signal_shutdown false;
  Atomic.set signal_dump false;
  (* SIGINT and SIGTERM both mean drain-then-exit: finish in-flight
     work, flush replies, close the socket.  SIGTERM is what service
     managers send first, so treating it like a kill would turn every
     orderly stop into a crash recovery. *)
  let install signum =
    try
      Some
        ( signum,
          Sys.signal signum
            (Sys.Signal_handle (fun _ -> Atomic.set signal_shutdown true)) )
    with Invalid_argument _ | Sys_error _ -> None
  in
  let install_dump signum =
    try
      Some
        ( signum,
          Sys.signal signum
            (Sys.Signal_handle (fun _ -> Atomic.set signal_dump true)) )
    with Invalid_argument _ | Sys_error _ -> None
  in
  let prev_signals =
    (* A peer that vanished mid-reply (conn-drop chaos, a killed
       client) or a compute domain waking a just-closed pipe must
       surface as EPIPE for the error paths below, not kill the
       process.  SIGQUIT asks for a flight-recorder dump without
       stopping the service (SIGKILL is uncatchable; the [dump] verb
       covers on-demand dumps from a live client instead). *)
    (try [ (Sys.sigpipe, Sys.signal Sys.sigpipe Sys.Signal_ignore) ]
     with Invalid_argument _ | Sys_error _ -> [])
    @ List.filter_map install [ Sys.sigint; Sys.sigterm ]
    @ List.filter_map install_dump [ Sys.sigquit ]
  in
  let pool = env.Env.spawn_compute (compute_step ctx env store sh) in
  sh.pool <- Some pool;
  if not cfg.quiet then
    Printf.eprintf "[serve] listening on %s (store %s, %d job(s))\n%!"
      cfg.socket cfg.store_dir cfg.jobs;
  let wake_buf = Bytes.create 256 in
  let rec loop () =
    if Atomic.get signal_shutdown && not st.shutting then begin
      st.shutting <- true;
      Vmbp_obs.Flight.note ~kind:"signal" "drain";
      logf st "signal; draining"
    end;
    if Atomic.get signal_dump then begin
      Atomic.set signal_dump false;
      Vmbp_obs.Flight.note ~kind:"signal" "dump";
      ignore (dump_flight st "signal")
    end;
    if drained st then ()
    else begin
      let now = env.Env.now () in
      let rfds =
        (if st.shutting then [] else [ listen_fd ])
        @ wake_r
          :: List.filter_map
               (fun c -> if c.closing then None else Some c.fd)
               st.conns
      in
      let wfds =
        List.filter_map
          (fun c ->
            if c.outbuf <> "" && now >= c.stalled_until then Some c.fd
            else None)
          st.conns
      in
      (match env.Env.select rfds wfds 0.05 with
      | readable, writable ->
          if (not st.shutting) && List.memq listen_fd readable then
            accept_conns st listen_fd;
          if List.memq wake_r readable then begin
            (try
               while
                 env.Env.read wake_r wake_buf 0 (Bytes.length wake_buf) > 0
               do
                 ()
               done
             with
            | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
            | Unix.Unix_error (Unix.EINTR, _, _) -> ());
            Mutex.lock sh.lock;
            let results = List.rev sh.results in
            sh.results <- [];
            Mutex.unlock sh.lock;
            List.iter (distribute st) results
          end;
          List.iter
            (fun c ->
              if (not c.dropped) && List.memq c.fd readable then
                read_conn st c)
            st.conns;
          List.iter
            (fun c ->
              if (not c.dropped) && List.memq c.fd writable then
                write_conn st c)
            st.conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      let now = env.Env.now () in
      reap st now;
      update_degraded st now;
      refresh_gauges st;
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      enqueue sh J_stop;
      pool.Env.join ();
      List.iter
        (fun c -> try env.Env.close c.fd with Unix.Unix_error _ -> ())
        st.conns;
      (try env.Env.close listen_fd with Unix.Unix_error _ -> ());
      (try env.Env.unlink cfg.socket with Unix.Unix_error _ -> ());
      (try env.Env.close wake_r with Unix.Unix_error _ -> ());
      (try env.Env.close wake_w with Unix.Unix_error _ -> ());
      (match st.deg_since with
      | Some t0 ->
          Vmbp_obs.Registry.gauge_add g_degraded (env.Env.now () -. t0)
      | None -> ());
      List.iter
        (fun (signum, h) ->
          try Sys.set_signal signum h with _ -> ())
        prev_signals;
      Vmbp_store.Store.close store;
      let c = Vmbp_obs.Registry.count in
      Vmbp_obs.Export.finish ~quiet:cfg.quiet ?spans:cfg.trace_out
        ?metrics:cfg.metrics_out (fun () ->
          Printf.sprintf
            "[obs] requests=%d coalesced=%d shed=%d degraded_refused=%d \
             timeouts=%d conn_drops=%d flight_dumps=%d spans=%d"
            (c "service.requests") (c "service.coalesced") (c "service.shed")
            (c "service.degraded_refused")
            (c "service.request_timeouts")
            (c "service.conn_drops")
            (c "service.flight_dumps")
            (Vmbp_obs.Span.count ()));
      if not cfg.quiet then
        Printf.eprintf "[serve] drained; socket closed\n%!")
    (fun () ->
      try loop ()
      with exn ->
        (* Unclean exit: whatever the loop was doing is in the ring --
           dump it before the exception propagates.  [dump_flight]
           cannot raise, so the original exception is preserved. *)
        Vmbp_obs.Flight.note ~kind:"crash" (Printexc.to_string exn);
        ignore (dump_flight st "crash");
        raise exn)

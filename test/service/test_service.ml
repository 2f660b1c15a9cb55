(* End-to-end tests of the report service: the daemon runs in a domain
   inside the test process, clients speak the real wire protocol over a
   real Unix-domain socket.  Covered: miss-compute-then-hit, duplicate
   coalescing (one compute, N identical replies), protocol edges
   (oversized frame, truncated frame, unknown verb, grid scale below 1),
   degradation under a wedged pool, and shutdown draining in-flight
   requests. *)

module P = Vmbp_service.Protocol
module Service = Vmbp_service.Service
module PR = Vmbp_report.Par_runner
module Faults = Vmbp_report.Faults

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let uniq =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%d-%d" (Unix.getpid ()) !n

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go tries =
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
        Unix.sleepf 0.02;
        go (tries - 1)
  in
  go 200;
  fd

let rpc fd payload =
  P.write_frame fd payload;
  match P.read_frame fd with
  | Some reply -> reply
  | None -> Alcotest.fail "server closed the connection without a reply"

let fields_of reply =
  try Vmbp_store.Sjson.parse_line reply
  with Vmbp_store.Sjson.Bad ->
    Alcotest.failf "unparseable reply: %s" reply

let status reply =
  match Vmbp_store.Sjson.str_opt (fields_of reply) "status" with
  | Some s -> s
  | None -> Alcotest.failf "reply without status: %s" reply

let source reply = Vmbp_store.Sjson.str_opt (fields_of reply) "source"

(* Start a server in its own domain with a fresh socket and store.  The
   returned [stop] shuts it down (via the shutdown verb unless the test
   already did), joins its domain and cleans up; it is idempotent.  After
   [stop] the daemon has drained: every span it records is recorded. *)
let start_server ?(chaos = "") ?(admission = 64) ?(degraded_after = 2.)
    ?(request_timeout = 30.) ?flight_dir () =
  let id = uniq () in
  let socket = Filename.concat "/tmp" ("vmbp-svc-" ^ id ^ ".sock") in
  let store = Filename.concat "/tmp" ("vmbp-svc-store-" ^ id) in
  (match Faults.configure chaos with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "chaos spec: %s" msg);
  let cfg =
    {
      (Service.default_config ~socket ~store_dir:store) with
      Service.jobs = 2;
      admission;
      degraded_after;
      request_timeout;
      slow_reader_timeout = 2.;
      flight_dir = Option.value ~default:"." flight_dir;
    }
  in
  let srv = Domain.spawn (fun () -> Service.serve cfg) in
  let stopped = ref false in
  let stop () =
    if not !stopped then begin
      stopped := true;
      (* If the test already shut the server down, the connect fails and
         the domain is already finishing. *)
      (try
         let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         (try
            Unix.connect fd (Unix.ADDR_UNIX socket);
            ignore (rpc fd (P.obj [ ("verb", P.S "shutdown") ]))
          with _ -> ());
         Unix.close fd
       with _ -> ());
      Domain.join srv;
      Faults.reset ();
      rm_rf store
    end
  in
  (socket, stop)

let with_server ?chaos ?admission ?degraded_after ?request_timeout ?flight_dir
    f =
  let socket, stop =
    start_server ?chaos ?admission ?degraded_after ?request_timeout
      ?flight_dir ()
  in
  Fun.protect ~finally:stop (fun () -> f socket)

let counter = Vmbp_obs.Registry.count

let gray_query =
  P.query_payload ~vm:"forth" ~workload:"gray" ~technique:"switch"
    ~cpu:"celeron-800" ~scale:1 ()

(* ------------------------------------------------------------------ *)

let test_health_and_stats () =
  with_server (fun socket ->
      let fd = connect socket in
      let h = rpc fd (P.obj [ ("verb", P.S "health") ]) in
      check_string "healthy" "ok" (status h);
      check_bool "serving" true
        (Vmbp_store.Sjson.str_opt (fields_of h) "state" = Some "serving");
      let s = fields_of (rpc fd (P.obj [ ("verb", P.S "stats") ])) in
      check_bool "stats has entries" true
        (Vmbp_store.Sjson.int_opt s "entries" = Some 0);
      check_bool "stats counts itself" true
        (match Vmbp_store.Sjson.int_opt s "requests" with
        | Some n -> n >= 2
        | None -> false);
      Unix.close fd)

let test_query_miss_then_hit () =
  with_server (fun socket ->
      let fd = connect socket in
      let first = rpc fd gray_query in
      check_string "computed" "ok" (status first);
      check_bool "first is a miss" true (source first = Some "computed");
      let second = rpc fd gray_query in
      check_bool "second is a hit" true (source second = Some "store");
      (* The stored reply matches the computed one field for field. *)
      List.iter
        (fun f ->
          Alcotest.(check (option string))
            (f ^ " identical")
            (Vmbp_store.Sjson.str_opt (fields_of first) f)
            (Vmbp_store.Sjson.str_opt (fields_of second) f))
        [ "output" ];
      List.iter
        (fun f ->
          Alcotest.(check (option int))
            (f ^ " identical")
            (Vmbp_store.Sjson.int_opt (fields_of first) f)
            (Vmbp_store.Sjson.int_opt (fields_of second) f))
        [ "steps"; "vm_instrs"; "dispatches"; "mispredicts"; "icache_misses" ];
      Unix.close fd)

let test_duplicate_queries_coalesce () =
  (* Wedge the compute domain briefly so all four duplicates are in the
     house before the batch runs: exactly one compute, four identical
     replies, three coalesced. *)
  with_server ~chaos:"pool-wedge=1@0.4" (fun socket ->
      let coalesced0 = counter "service.coalesced" in
      let fds = List.init 4 (fun _ -> connect socket) in
      List.iter (fun fd -> P.write_frame fd gray_query) fds;
      let replies =
        List.map
          (fun fd ->
            match P.read_frame fd with
            | Some r -> r
            | None -> Alcotest.fail "dropped while coalescing")
          fds
      in
      (match replies with
      | first :: rest ->
          check_string "computed once" "ok" (status first);
          List.iter
            (fun r -> check_string "identical replies" first r)
            rest
      | [] -> Alcotest.fail "no replies");
      check_int "three coalesced" 3 (counter "service.coalesced" - coalesced0);
      List.iter Unix.close fds)

let test_protocol_edges () =
  with_server (fun socket ->
      (* Unknown verb. *)
      let fd = connect socket in
      check_string "unknown verb" "bad-request"
        (status (rpc fd (P.obj [ ("verb", P.S "frobnicate") ])));
      (* A grid below scale 1 is refused like a query's, never computed
         and stored. *)
      List.iter
        (fun n ->
          check_string
            (Printf.sprintf "grid scale %d refused" n)
            "bad-request"
            (status (rpc fd (P.obj [ ("verb", P.S "grid"); ("scale", P.I n) ]))))
        [ 0; -1 ];
      (* Oversized frame: rejected with a reply, then the connection is
         closed (the stream past a bad header is unframeable). *)
      let big = P.encode_frame (String.make 100_000 'x') in
      (* The server rejects on the frame header and hangs up without
         reading the body, so the tail of this write can race the close
         and die with EPIPE/ECONNRESET -- that still proves the point. *)
      let sent =
        match Unix.write_substring fd big 0 (String.length big) with
        | n -> n > 0
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            true
      in
      check_bool "frame sent" true sent;
      (match P.read_frame fd with
      | Some r -> check_string "oversized rejected" "bad-request" (status r)
      | None -> ()
      | exception (End_of_file | Unix.Unix_error _) -> ());
      (* Closed for good: clean EOF, or RST if the kernel still held the
         unread remainder of the oversized frame. *)
      check_bool "connection closed after oversize" true
        (match P.read_frame fd with
        | None -> true
        | Some _ -> false
        | exception (End_of_file | Unix.Unix_error _) -> true);
      Unix.close fd;
      (* Truncated frame: a client dying mid-frame must not wedge the
         server. *)
      let fd2 = connect socket in
      ignore (Unix.write_substring fd2 "\x00\x00" 0 2);
      Unix.close fd2;
      let fd3 = connect socket in
      check_string "server survives a truncated frame" "ok"
        (status (rpc fd3 (P.obj [ ("verb", P.S "health") ])));
      Unix.close fd3)

let test_degraded_store_only () =
  (* Wedge the pool past [degraded_after]: a store hit still serves, a
     fresh miss is refused with [degraded], and the degradation window is
     accounted. *)
  with_server ~degraded_after:0.15 (fun socket ->
      let fd = connect socket in
      (* Warm the store with one computed cell. *)
      check_string "warmup" "ok" (status (rpc fd gray_query));
      (match Faults.configure "pool-wedge=1@0.9" with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "chaos: %s" msg);
      (* A miss that wedges the compute domain. *)
      let slow = connect socket in
      P.write_frame slow
        (P.query_payload ~vm:"forth" ~workload:"gray" ~technique:"switch"
           ~cpu:"pentium-m" ~scale:1 ());
      Unix.sleepf 0.4;
      (* Store hits keep serving while degraded. *)
      let hit = rpc fd gray_query in
      check_bool "hit served while degraded" true (source hit = Some "store");
      (* A different miss is refused. *)
      check_string "miss refused while degraded" "degraded"
        (status
           (rpc fd
              (P.query_payload ~vm:"forth" ~workload:"gray"
                 ~technique:"switch" ~cpu:"pentium4-prescott" ~scale:1 ())));
      check_bool "health reports degraded" true
        (Vmbp_store.Sjson.str_opt
           (fields_of (rpc fd (P.obj [ ("verb", P.S "health") ])))
           "state"
        = Some "degraded");
      (* The wedged request itself completes once the pool recovers. *)
      (match P.read_frame slow with
      | Some r -> check_string "wedged miss completes" "ok" (status r)
      | None -> Alcotest.fail "wedged request lost");
      let s = fields_of (rpc fd (P.obj [ ("verb", P.S "stats") ])) in
      check_bool "degraded window accounted" true
        (match Vmbp_store.Sjson.num s "degraded_seconds" with
        | v -> v > 0.
        | exception Vmbp_store.Sjson.Bad -> false);
      Unix.close slow;
      Unix.close fd)

let test_admission_shed () =
  (* admission=1 with a wedged pool: the second distinct miss sheds with
     an explicit [overloaded] reply. *)
  with_server ~admission:1 ~chaos:"pool-wedge=1@0.5" ~degraded_after:10.
    (fun socket ->
      let a = connect socket in
      P.write_frame a gray_query;
      Unix.sleepf 0.1;
      let b = connect socket in
      check_string "second miss shed" "overloaded"
        (status
           (rpc b
              (P.query_payload ~vm:"forth" ~workload:"gray"
                 ~technique:"switch" ~cpu:"pentium-m" ~scale:1 ())));
      (match P.read_frame a with
      | Some r -> check_string "admitted miss completes" "ok" (status r)
      | None -> Alcotest.fail "admitted request lost");
      Unix.close a;
      Unix.close b)

let test_shutdown_drains_inflight () =
  (* A shutdown with a compute in flight: the in-flight reply still
     arrives, new misses are refused, and the server exits cleanly
     (with_server joins the domain). *)
  with_server ~chaos:"pool-wedge=1@0.4" (fun socket ->
      let q = connect socket in
      P.write_frame q gray_query;
      Unix.sleepf 0.1;
      let c = connect socket in
      check_string "shutdown acknowledged" "ok"
        (status (rpc c (P.obj [ ("verb", P.S "shutdown") ])));
      (match P.read_frame q with
      | Some r -> check_string "in-flight reply delivered" "ok" (status r)
      | None -> Alcotest.fail "in-flight request dropped by shutdown");
      Unix.close q;
      Unix.close c)

let test_sigterm_drains_like_sigint () =
  (* SIGTERM while a compute is wedged in flight: drain, deliver the
     in-flight reply, exit cleanly (with_server joins the domain). *)
  with_server ~chaos:"pool-wedge=1@0.4" (fun socket ->
      let q = connect socket in
      P.write_frame q gray_query;
      Unix.sleepf 0.15;
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      (match P.read_frame q with
      | Some r -> check_string "in-flight reply delivered" "ok" (status r)
      | None -> Alcotest.fail "in-flight request dropped by SIGTERM");
      Unix.close q)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_unbindable_socket_leaves_no_store () =
  (* A socket path under a regular file cannot be bound: serve fails
     after opening its store and removes what that open created -- the
     store file and every directory it made -- but never a store that
     holds records. *)
  let base = Filename.concat "/tmp" ("vmbp-svc-bind-" ^ uniq ()) in
  let notadir = base ^ "-file" in
  close_out (open_out notadir);
  let serve store_dir =
    let cfg =
      {
        (Service.default_config ~socket:(Filename.concat notadir "s.sock")
           ~store_dir)
        with
        Service.quiet = true;
      }
    in
    match Service.serve cfg with
    | () -> Alcotest.fail "a socket under a regular file must not bind"
    | exception Unix.Unix_error (Unix.ENOTDIR, _, path) ->
        check_bool "the error names the socket" true
          (contains path "s.sock")
  in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove notadir;
      rm_rf base)
    (fun () ->
      serve (Filename.concat base "new/store");
      check_bool "no store directory left behind" false (Sys.file_exists base);
      let store = Vmbp_store.Store.open_ base in
      Vmbp_store.Store.append store
        {
          Vmbp_store.Cellrec.key = "k";
          fingerprint = "f";
          outcome = Error "seeded";
          attempts = 1;
          timed_out = false;
        };
      Vmbp_store.Store.close store;
      serve base;
      check_bool "a store with records stays" true
        (Sys.file_exists (Vmbp_store.Store.file base)))

let test_metrics_verb () =
  with_server (fun socket ->
      let fd = connect socket in
      check_string "warm one cell" "ok" (status (rpc fd gray_query));
      (* JSON format (the default): the registry dump rides in [body]. *)
      let j = fields_of (rpc fd (P.obj [ ("verb", P.S "metrics") ])) in
      check_bool "json status ok" true
        (Vmbp_store.Sjson.str_opt j "status" = Some "ok");
      check_bool "json format" true
        (Vmbp_store.Sjson.str_opt j "format" = Some "json");
      (match Vmbp_store.Sjson.str_opt j "body" with
      | None -> Alcotest.fail "metrics reply carries no body"
      | Some body ->
          check_bool "registry schema" true (contains body "vmbp-metrics/1");
          check_bool "request counter present" true
            (contains body "service.requests"));
      (* Prometheus format: the same bytes a scraper would pull. *)
      let p =
        fields_of
          (rpc fd
             (P.obj [ ("verb", P.S "metrics"); ("format", P.S "prometheus") ]))
      in
      check_bool "prom format" true
        (Vmbp_store.Sjson.str_opt p "format" = Some "prometheus");
      (match Vmbp_store.Sjson.str_opt p "body" with
      | None -> Alcotest.fail "prometheus reply carries no body"
      | Some body ->
          check_bool "mangled counter exported" true
            (contains body "vmbp_service_requests_total");
          check_bool "typed" true (contains body "# TYPE");
          check_bool "per-verb histogram exported" true
            (contains body "vmbp_service_verb_seconds_bucket{verb=\"query\""));
      Unix.close fd)

let test_dump_verb () =
  let id = uniq () in
  let flight = Filename.concat "/tmp" ("vmbp-svc-flight-" ^ id) in
  Fun.protect
    ~finally:(fun () -> rm_rf flight)
    (fun () ->
      with_server ~flight_dir:flight (fun socket ->
          let fd = connect socket in
          check_string "traffic for the ring" "ok" (status (rpc fd gray_query));
          let d = fields_of (rpc fd (P.obj [ ("verb", P.S "dump") ])) in
          check_bool "dump acknowledged" true
            (Vmbp_store.Sjson.str_opt d "status" = Some "ok");
          (match Vmbp_store.Sjson.str_opt d "path" with
          | None -> Alcotest.fail "dump reply carries no path"
          | Some path ->
              check_bool "dump file exists" true (Sys.file_exists path);
              let ic = open_in path in
              let body =
                Fun.protect
                  ~finally:(fun () -> close_in ic)
                  (fun () -> really_input_string ic (in_channel_length ic))
              in
              check_bool "flight schema" true
                (contains body "\"schema\":\"vmbp-flight/1\"");
              check_bool "dump reason recorded" true
                (contains body "\"reason\":\"dump\"");
              check_bool "ring saw the query" true
                (contains body "\"kind\":\"batch-start\""));
          check_bool "entry count reported" true
            (match Vmbp_store.Sjson.int_opt d "entries" with
            | Some n -> n > 0
            | None -> false);
          Unix.close fd))

let test_rid_echo_passivity () =
  (* A rid must be purely additive: the reply to a rid-tagged query is
     byte-identical to the untagged reply plus the spliced echo. *)
  with_server (fun socket ->
      let fd = connect socket in
      check_string "warm" "ok" (status (rpc fd gray_query));
      let plain = rpc fd gray_query in
      check_bool "plain hit" true (source plain = Some "store");
      let rid = "passivity-1" in
      let tagged =
        rpc fd
          (P.query_payload ~vm:"forth" ~workload:"gray" ~technique:"switch"
             ~cpu:"celeron-800" ~scale:1 ~rid ())
      in
      check_bool "rid echoed" true
        (Vmbp_store.Sjson.str_opt (fields_of tagged) "rid" = Some rid);
      check_string "tagged reply = plain reply + spliced rid"
        (String.sub plain 0 (String.length plain - 1)
        ^ ",\"rid\":\"" ^ rid ^ "\"}")
        tagged;
      Unix.close fd)

let test_trace_links_coalesced_rids () =
  (* Four rid-tagged duplicates of one cell under a wedged pool: each
     rid's admit span names the in-flight key, and exactly one
     compute-batch span serves that key -- the cross-thread fan-in the
     trace view hangs the four request trees on. *)
  let socket, stop = start_server ~chaos:"pool-wedge=1@0.4" () in
  Fun.protect ~finally:stop (fun () ->
      Vmbp_obs.Span.enable ();
      Fun.protect
        ~finally:(fun () -> Vmbp_obs.Span.disable ())
        (fun () ->
          let rids = List.init 4 (fun i -> Printf.sprintf "tc-r%d" i) in
          let fds = List.map (fun _ -> connect socket) rids in
          List.iter2
            (fun fd rid ->
              P.write_frame fd
                (P.query_payload ~vm:"forth" ~workload:"gray"
                   ~technique:"switch" ~cpu:"celeron-800" ~scale:1 ~rid ()))
            fds rids;
          List.iter2
            (fun fd rid ->
              match P.read_frame fd with
              | None -> Alcotest.fail "dropped while coalescing"
              | Some reply ->
                  check_string "coalesced reply ok" "ok" (status reply);
                  check_bool ("reply echoes " ^ rid) true
                    (Vmbp_store.Sjson.str_opt (fields_of reply) "rid"
                    = Some rid))
            fds rids;
          List.iter Unix.close fds;
          (* The daemon records a reply's flush span only once its event
             loop sees the write complete, which can trail the client's
             read; read the spans after the server has drained. *)
          stop ();
          let events = Vmbp_obs.Span.events () in
          let arg (e : Vmbp_obs.Span.event) k =
            Option.value ~default:"" (List.assoc_opt k e.Vmbp_obs.Span.args)
          in
          let batches =
            List.filter
              (fun (e : Vmbp_obs.Span.event) ->
                e.Vmbp_obs.Span.name = "compute-batch")
              events
          in
          check_int "exactly one compute batch" 1 (List.length batches);
          let batch = List.hd batches in
          check_string "batch of one cell" "1" (arg batch "cells");
          (* Every rid admits onto the same key, and the batch span
             names that key: the four request trees all link to the one
             compute. *)
          let keys =
            List.map
              (fun rid ->
                match
                  List.find_opt
                    (fun (e : Vmbp_obs.Span.event) ->
                      e.Vmbp_obs.Span.name = "admit"
                      && e.Vmbp_obs.Span.trace = rid
                      && (arg e "decision" = "enqueue"
                         || arg e "decision" = "coalesce"))
                    events
                with
                | Some e -> arg e "key"
                | None -> Alcotest.failf "rid %s left no admit span" rid)
              rids
          in
          let key = List.hd keys in
          check_bool "admit key non-empty" true (key <> "");
          List.iter (check_string "all rids admit the same key" key) keys;
          check_bool "batch span serves the admitted key" true
            (contains (arg batch "keys") key);
          (* The enqueuing waiter's rid rides in the batch span itself;
             spans on the compute domain record a different thread than
             the event loop's, so the trace visibly crosses threads. *)
          check_bool "enqueuer's rid in the batch span" true
            (List.exists
               (fun rid -> contains (arg batch "rids") rid)
               rids);
          let parse_tid =
            match
              List.find_opt
                (fun (e : Vmbp_obs.Span.event) ->
                  e.Vmbp_obs.Span.name = "parse"
                  && List.mem e.Vmbp_obs.Span.trace rids)
                events
            with
            | Some e -> e.Vmbp_obs.Span.tid
            | None -> Alcotest.fail "no parse span for any rid"
          in
          check_bool "batch runs on another thread" true
            (batch.Vmbp_obs.Span.tid <> parse_tid);
          (* Every rid's reply left a flush span. *)
          List.iter
            (fun rid ->
              check_bool (rid ^ " flushed") true
                (List.exists
                   (fun (e : Vmbp_obs.Span.event) ->
                     e.Vmbp_obs.Span.name = "flush"
                     && e.Vmbp_obs.Span.trace = rid)
                   events))
            rids))

let test_loadgen_plan_determinism () =
  let cfg =
    { (Vmbp_service.Loadgen.default_config ~socket:"/unused") with
      Vmbp_service.Loadgen.seed = 42 }
  in
  let a = Vmbp_service.Loadgen.query_plan cfg ~index:0 ~count:50 in
  let b = Vmbp_service.Loadgen.query_plan cfg ~index:0 ~count:50 in
  check_bool "same seed and index, same query sequence" true (a = b);
  check_int "full length" 50 (List.length a);
  let other = Vmbp_service.Loadgen.query_plan cfg ~index:1 ~count:50 in
  check_bool "clients draw distinct streams" false (a = other);
  let reseeded =
    Vmbp_service.Loadgen.query_plan
      { cfg with Vmbp_service.Loadgen.seed = 43 }
      ~index:0 ~count:50
  in
  check_bool "different seed, different sequence" false (a = reseeded);
  (* A plan is a prefix-stable schedule: asking for fewer queries gives
     the prefix, so partial runs replay the same leading requests. *)
  let short = Vmbp_service.Loadgen.query_plan cfg ~index:0 ~count:10 in
  check_bool "shorter plan is a prefix" true
    (short = List.filteri (fun i _ -> i < 10) a);
  (* Seed 42's first picks, pinned: a seed names one query sequence, so
     the splitmix64 stream behind it must not drift by a bit. *)
  let pick vm w t cpu = Printf.sprintf "%s/%s/%s/%s" vm w t cpu in
  Alcotest.(check (list string))
    "seed 42 draws the pinned picks"
    [
      pick "forth" "bench-gc" "static repl" "pentium4-northwood";
      pick "forth" "gray" "switch" "celeron-800";
      pick "forth" "gray" "switch" "pentium4-prescott";
      pick "forth" "gray" "switch" "pentium-m";
      pick "forth" "gray" "switch" "celeron-800";
      pick "forth" "vmgen" "across bb" "pentium4-prescott";
      pick "forth" "gray" "switch" "pentium4-northwood";
      pick "forth" "bench-gc" "subroutine threading" "ideal";
      pick "forth" "gray" "switch" "pentium-m";
      pick "forth" "gray" "dynamic repl" "pentium4-northwood";
    ]
    (List.map (fun (vm, w, t, cpu) -> pick vm w t cpu) short)

(* A connect that finds no listener raises and leaves no descriptor
   behind: the load generator retries it a hundred times per gap. *)
let test_connect_closes_on_failure () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let socket = Filename.concat "/tmp" ("vmbp-nobody-" ^ uniq () ^ ".sock") in
  let before = open_fds () in
  for _ = 1 to 3 do
    match P.connect socket with
    | fd ->
        Unix.close fd;
        Alcotest.fail "connected to a socket nobody listens on"
    | exception Unix.Unix_error _ -> ()
  done;
  check_int "no descriptor leaked" before (open_fds ())

let test_loadgen_reconnects_under_conn_drop () =
  (* Point the generator at a server that keeps severing connections:
     every client must reconnect, resume its plan and finish. *)
  with_server ~chaos:"conn-drop=0.5,seed=5" (fun socket ->
      (* Loadgen clients fail hard if their first connect finds no
         listener, so wait for the server to come up. *)
      Unix.close (connect socket);
      let before = counter "loadgen.status.conn-drop" in
      let ok_before = counter "loadgen.status.ok" in
      Vmbp_service.Loadgen.run
        {
          Vmbp_service.Loadgen.socket;
          clients = 2;
          requests = 40;
          seed = 3;
          zipf = 1.1;
          scale = 1;
          json_out = None;
        };
      check_bool "connections were dropped" true
        (counter "loadgen.status.conn-drop" - before > 0);
      check_bool "clients resumed and completed queries" true
        (counter "loadgen.status.ok" - ok_before > 0))

let test_loadgen_json_summary () =
  let cfg =
    {
      (Vmbp_service.Loadgen.default_config ~socket:"/unused") with
      Vmbp_service.Loadgen.requests = 40;
      clients = 2;
      seed = 3;
    }
  in
  let doc =
    Vmbp_service.Loadgen.json_summary cfg ~elapsed:2.0 ~universe_size:665
  in
  check_bool "schema" true (contains doc "\"schema\":\"vmbp-loadgen/1\"");
  check_bool "requests" true (contains doc "\"requests\":40");
  check_bool "derived rps" true (contains doc "\"rps\":20");
  check_bool "universe" true (contains doc "\"universe\":665");
  check_bool "statuses object" true (contains doc "\"statuses\":{");
  check_bool "latency families" true
    (contains doc "\"latency\":{\"all\":{" && contains doc "\"hits\":{");
  check_bool "one closed document" true
    (String.length doc > 2 && doc.[0] = '{' && doc.[String.length doc - 1] = '}')

(* ------------------------------------------------------------------ *)
(* The [top] monitor's exposition parser and renderer, on hand-written
   scrape text (pure functions, no server needed). *)

let expo =
  String.concat "\n"
    [
      "# HELP vmbp_service_requests_total requests";
      "# TYPE vmbp_service_requests_total counter";
      "vmbp_service_requests_total 120";
      "vmbp_service_store_hits_total 60";
      "vmbp_service_connections 3";
      "vmbp_service_verb_seconds_bucket{verb=\"query\",le=\"0.001\"} 50";
      "vmbp_service_verb_seconds_bucket{verb=\"query\",le=\"0.01\"} 90";
      "vmbp_service_verb_seconds_bucket{verb=\"query\",le=\"+Inf\"} 100";
      "vmbp_service_verb_seconds_sum{verb=\"query\"} 1.5";
      "vmbp_service_verb_seconds_count{verb=\"query\"} 100";
      "";
    ]

let test_top_parse () =
  let module Top = Vmbp_service.Top in
  let samples = Top.parse expo in
  check_int "comments and blanks skipped" 8 (List.length samples);
  check_bool "plain value" true
    (Top.value samples "vmbp_service_requests_total" = 120.);
  check_bool "gauge value" true
    (Top.value samples "vmbp_service_connections" = 3.);
  check_bool "absent series reads zero" true
    (Top.value samples "vmbp_service_no_such" = 0.);
  check_bool "labelled lookup" true
    (Top.value
       ~labels:[ ("verb", "query") ]
       samples "vmbp_service_verb_seconds_count"
    = 100.)

let test_top_quantiles () =
  let module Top = Vmbp_service.Top in
  let samples = Top.parse expo in
  let bs =
    Top.buckets samples "vmbp_service_verb_seconds" ~label_key:"verb"
      ~label_value:"query"
  in
  check_int "three buckets incl +Inf" 3 (List.length bs);
  check_bool "p50 in the first bucket" true
    (Top.bucket_quantile bs 0.5 = 0.001);
  (* rank 95 of 100 lands past the last finite bound: clamp, not inf. *)
  check_bool "overflow clamps to last finite bound" true
    (Top.bucket_quantile bs 0.95 = 0.01);
  check_bool "empty buckets give nan" true
    (Float.is_nan (Top.bucket_quantile [] 0.5))

let test_top_render () =
  let module Top = Vmbp_service.Top in
  let samples = Top.parse expo in
  let out = Top.render ~dt:0. samples in
  check_bool "header row" true (contains out "p99");
  check_bool "request counter shown" true (contains out "requests 120");
  check_bool "hit rate computed" true (contains out "50.0%");
  check_bool "verb row present" true (contains out "query");
  (* A second identical snapshot: zero traffic in the window, so the
     quantiles fall back to the all-time distribution (no dashes). *)
  let again = Top.render ~prev:samples ~dt:2. samples in
  check_bool "idle window falls back to all-time" false (contains again "-\n")

let () =
  Alcotest.run "service"
    [
      ( "service",
        [
          Alcotest.test_case "health and stats" `Quick test_health_and_stats;
          Alcotest.test_case "query miss then hit" `Quick
            test_query_miss_then_hit;
          Alcotest.test_case "duplicates coalesce" `Quick
            test_duplicate_queries_coalesce;
          Alcotest.test_case "protocol edges" `Quick test_protocol_edges;
          Alcotest.test_case "degraded store-only" `Quick
            test_degraded_store_only;
          Alcotest.test_case "admission shed" `Quick test_admission_shed;
          Alcotest.test_case "shutdown drains in-flight" `Quick
            test_shutdown_drains_inflight;
          Alcotest.test_case "SIGTERM drains like SIGINT" `Quick
            test_sigterm_drains_like_sigint;
          Alcotest.test_case "unbindable socket leaves no store" `Quick
            test_unbindable_socket_leaves_no_store;
          Alcotest.test_case "failed connect closes its socket" `Quick
            test_connect_closes_on_failure;
        ] );
      ( "observability",
        [
          Alcotest.test_case "metrics verb" `Quick test_metrics_verb;
          Alcotest.test_case "dump verb" `Quick test_dump_verb;
          Alcotest.test_case "rid echo is passive" `Quick
            test_rid_echo_passivity;
          Alcotest.test_case "trace links coalesced rids" `Quick
            test_trace_links_coalesced_rids;
        ] );
      ( "top",
        [
          Alcotest.test_case "exposition parse" `Quick test_top_parse;
          Alcotest.test_case "bucket quantiles" `Quick test_top_quantiles;
          Alcotest.test_case "render" `Quick test_top_render;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "plan determinism" `Quick
            test_loadgen_plan_determinism;
          Alcotest.test_case "reconnects under conn-drop" `Quick
            test_loadgen_reconnects_under_conn_drop;
          Alcotest.test_case "json summary" `Quick test_loadgen_json_summary;
        ] );
    ]

(* Tests of the deterministic simulation world and the whole-system
   simulate harness: virtual time, seeded-stream determinism, the
   power-cut filesystem image, simulated sockets, one full scripted
   schedule per seed, and the mutation teeth (each re-introduced past
   bug must be caught within a bounded seed budget). *)

module Sim = Vmbp_sim.Sim_env
module Env = Vmbp_sim.Env
module Simulate = Vmbp_service.Simulate

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Pump the world's event loop like a server would, until [steps]
   selects have run or a crash unwinds. *)
let pump ?(steps = 50) w =
  let e = Sim.env w in
  try
    for _ = 1 to steps do
      ignore (e.Env.select [] [] 0.5)
    done;
    `Drained
  with Sim.Crashed -> `Crashed

let is_prefix ~of_:whole p =
  String.length p <= String.length whole
  && String.sub whole 0 (String.length p) = p

(* ------------------------------------------------------------------ *)
(* Scheduler and virtual clock *)

let test_virtual_time_jumps () =
  let w = Sim.create ~seed:1 () in
  let e = Sim.env w in
  let fired = ref [] in
  Sim.at w 5.0 (fun () -> fired := "c" :: !fired);
  Sim.at w 2.0 (fun () -> fired := "a" :: !fired);
  Sim.at w 3.5 (fun () -> fired := "b" :: !fired);
  (* Nothing ready: one idle select must jump straight to the next
     event, not crawl there in wall-clock-sized steps. *)
  ignore (e.Env.select [] [] 10.0);
  check_bool "jumped to first event" true (Sim.now w >= 2.0 && Sim.now w < 3.5);
  ignore (e.Env.select [] [] 10.0);
  ignore (e.Env.select [] [] 10.0);
  check_string "events fire in time order" "a,b,c"
    (String.concat "," (List.rev !fired));
  (* An idle select with no events pending burns exactly the timeout. *)
  let t0 = Sim.now w in
  ignore (e.Env.select [] [] 0.25);
  check_bool "idle select = timeout" true (abs_float (Sim.now w -. t0 -. 0.25) < 1e-9)

let test_seeded_stream_determinism () =
  let draws w = List.init 32 (fun _ -> Sim.rand_float w) in
  let a = draws (Sim.create ~seed:77 ()) in
  let b = draws (Sim.create ~seed:77 ()) in
  let c = draws (Sim.create ~seed:78 ()) in
  check_bool "same seed, same stream" true (a = b);
  check_bool "different seed, different stream" false (a = c)

let test_select_cap_is_liveness () =
  let w = Sim.create ~select_cap:100 ~seed:1 () in
  let e = Sim.env w in
  check_bool "spinning loop hits Stalled" true
    (try
       for _ = 1 to 200 do
         ignore (e.Env.select [] [] 0.01)
       done;
       false
     with Sim.Stalled -> true)

(* ------------------------------------------------------------------ *)
(* Power-cut filesystem image *)

let test_power_cut_keeps_synced_prefix () =
  let w = Sim.create ~seed:5 () in
  let e = Sim.env w in
  Sim.set_short_write_p w 0.;
  Env.mkdir_p e "/d";
  let fd = e.Env.openfile "/d/f" [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  assert (e.Env.write fd "hello " 0 6 = 6);
  e.Env.fsync fd;
  e.Env.fsync_dir "/d";
  assert (e.Env.write fd "world" 0 5 = 5);
  Sim.crash_at w (Sim.now w +. 0.1);
  check_bool "crash unwinds select" true (pump w = `Crashed);
  Sim.restart w;
  match e.Env.read_file "/d/f" with
  | None -> Alcotest.fail "fsynced file vanished"
  | Some c ->
      check_bool "synced prefix survives" true (is_prefix ~of_:c "hello ");
      check_bool "tail is a prefix of the unsynced write" true
        (is_prefix ~of_:"hello world" c)

let test_power_cut_rolls_back_unsynced_create () =
  let w = Sim.create ~seed:6 () in
  let e = Sim.env w in
  Env.mkdir_p e "/d";
  e.Env.fsync_dir "/d";
  (* Created and even fsynced -- but the directory entry never was:
     exactly the compaction-without-dir-fsync bug's window. *)
  let fd = e.Env.openfile "/d/late" [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  ignore (e.Env.write fd "data" 0 4);
  e.Env.fsync fd;
  Sim.crash_at w (Sim.now w +. 0.1);
  check_bool "crash unwinds select" true (pump w = `Crashed);
  Sim.restart w;
  check_bool "unsynced create rolled back" true (e.Env.read_file "/d/late" = None)

(* [mkdir_p] creates exactly [missing_dirs], and [rmdir] removes only an
   empty directory, as the real one does. *)
let test_missing_dirs_and_rmdir () =
  let w = Sim.create ~seed:8 () in
  let e = Sim.env w in
  Env.mkdir_p e "/d";
  Alcotest.(check (list string))
    "outermost first, existing ones skipped" [ "/d/a"; "/d/a/b" ]
    (Env.missing_dirs e "/d/a/b");
  Env.mkdir_p e "/d/a/b";
  check_bool "all created" true (Env.missing_dirs e "/d/a/b" = []);
  let fd = e.Env.openfile "/d/a/b/f" [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  e.Env.close fd;
  let refused d =
    match e.Env.rmdir d with
    | () -> false
    | exception Unix.Unix_error (Unix.ENOTEMPTY, _, _) -> true
  in
  check_bool "a directory holding a file stays" true (refused "/d/a/b");
  check_bool "a directory holding a directory stays" true (refused "/d/a");
  e.Env.unlink "/d/a/b/f";
  e.Env.rmdir "/d/a/b";
  e.Env.rmdir "/d/a";
  check_bool "empty directories removed" false (e.Env.file_exists "/d/a");
  check_bool "a missing directory is ENOENT" true
    (match e.Env.rmdir "/d/a" with
    | () -> false
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> true)

let test_op_crash_tears_a_write () =
  let w = Sim.create ~seed:7 () in
  let e = Sim.env w in
  Env.mkdir_p e "/d";
  e.Env.fsync_dir "/d";
  let fd = e.Env.openfile "/d/f" [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  assert (e.Env.write fd "base," 0 5 = 5);
  e.Env.fsync fd;
  e.Env.fsync_dir "/d";
  let payload = String.make 256 'x' in
  Sim.crash_after_writes w 1;
  ignore (e.Env.write fd payload 0 (String.length payload));
  check_bool "op-crash pending" true (pump w = `Crashed);
  Sim.restart w;
  match e.Env.read_file "/d/f" with
  | None -> Alcotest.fail "file vanished"
  | Some c ->
      check_bool "synced bytes intact" true (is_prefix ~of_:c "base,");
      check_bool "torn tail is a prefix" true
        (is_prefix ~of_:("base," ^ payload) c);
      check_bool "the write really tore" true
        (String.length c < 5 + String.length payload)

(* ------------------------------------------------------------------ *)
(* Simulated sockets *)

let test_socket_roundtrip_and_crash_eof () =
  let w = Sim.create ~seed:9 () in
  let e = Sim.env w in
  check_bool "connect to nothing refused" true
    (match Sim.client_connect w "/nowhere" with
    | Error Unix.ECONNREFUSED -> true
    | _ -> false);
  let lfd = e.Env.listen "/sock" ~backlog:4 in
  let conn =
    match Sim.client_connect w "/sock" with
    | Ok c -> c
    | Error _ -> Alcotest.fail "connect refused with a listener bound"
  in
  let got = Buffer.create 16 in
  let eofs = ref 0 in
  Sim.on_conn_event w conn (function
    | Some bytes -> Buffer.add_string got bytes
    | None -> incr eofs);
  Sim.client_send w conn "ping";
  ignore (pump ~steps:20 w);
  let sfd =
    match e.Env.accept lfd with
    | Some fd -> fd
    | None -> Alcotest.fail "no accepted connection"
  in
  let buf = Bytes.create 64 in
  let n =
    let rec read_some tries =
      if tries = 0 then 0
      else
        match e.Env.read sfd buf 0 64 with
        | n -> n
        | exception Unix.Unix_error (Unix.EAGAIN, _, _) ->
            ignore (pump ~steps:5 w);
            read_some (tries - 1)
    in
    read_some 20
  in
  check_string "server read the request" "ping" (Bytes.sub_string buf 0 n);
  ignore (e.Env.write sfd "pong" 0 4);
  ignore (pump ~steps:20 w);
  check_string "client got the reply" "pong" (Buffer.contents got);
  (* A power cut EOFs the surviving client exactly once. *)
  Sim.crash_at w (Sim.now w +. 0.05);
  check_bool "crash unwinds select" true (pump w = `Crashed);
  Sim.restart w;
  ignore (pump ~steps:20 w);
  check_int "EOF delivered once" 1 !eofs

(* ------------------------------------------------------------------ *)
(* Whole-system schedules *)

let test_schedule_passes_and_replays () =
  let refs = Simulate.references () in
  let a = Simulate.run_seed refs 3 in
  let a_spans = Vmbp_obs.Span.to_json () in
  Alcotest.(check (list string)) "no invariant failed" [] a.Simulate.o_failures;
  check_bool "acks checked" true (a.Simulate.o_acks > 0);
  check_int "grid schedule compared a grid" 1 a.Simulate.o_grids;
  (* Replaying the seed reproduces the schedule bit for bit, and agrees
     with the first run's replies, store entries and grid. *)
  let b = Simulate.run_seed refs 3 in
  Alcotest.(check (list string)) "replay agrees" [] b.Simulate.o_failures;
  check_string "trace replays identically" a.Simulate.o_trace
    b.Simulate.o_trace;
  check_int "same acks" a.Simulate.o_acks b.Simulate.o_acks;
  check_int "same crashes" a.Simulate.o_crashes b.Simulate.o_crashes;
  (* The span trace is a pure function of the seed: virtual clock plus
     per-seed span-id reset make the whole Chrome JSON byte-stable. *)
  check_bool "span trace non-trivial" true
    (Vmbp_obs.Span.count () > 0);
  check_string "span trace replays byte-identically" a_spans
    (Vmbp_obs.Span.to_json ())

let test_crashing_schedule_holds_invariants () =
  (* Walk seeds until one injects a crash, then demand a clean bill. *)
  let refs = Simulate.references () in
  let rec hunt seed =
    if seed > 30 then Alcotest.fail "no seed crashed within budget"
    else
      let o = Simulate.run_seed refs seed in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d holds every invariant" seed)
        [] o.Simulate.o_failures;
      if o.Simulate.o_crashes > 0 then o else hunt (seed + 1)
  in
  let o = hunt 1 in
  check_bool "store survived a power cut mid-schedule" true
    (o.Simulate.o_crashes > 0 && o.Simulate.o_acks > 0)

(* Mutation teeth: each re-introduced bug must be caught within a
   bounded seed budget, and the catching seed must replay. *)
let catch_within mutation budget =
  let refs = Simulate.references () in
  let rec hunt seed =
    if seed > budget then
      Alcotest.failf "mutation %s not caught within %d seeds"
        (Simulate.mutation_name mutation)
        budget
    else
      let o = Simulate.run_seed ~mutation refs seed in
      if o.Simulate.o_failures <> [] then seed else hunt (seed + 1)
  in
  let seed = hunt 1 in
  let again = Simulate.run_seed ~mutation refs seed in
  check_bool "catching seed replays the catch" true
    (again.Simulate.o_failures <> [])

let test_teeth_ack_before_fsync () =
  catch_within Simulate.Ack_before_fsync 80

let test_teeth_no_dir_fsync () =
  catch_within Simulate.No_dir_fsync 150

let () =
  Alcotest.run "sim"
    [
      ( "world",
        [
          Alcotest.test_case "virtual time jumps" `Quick test_virtual_time_jumps;
          Alcotest.test_case "seeded stream determinism" `Quick
            test_seeded_stream_determinism;
          Alcotest.test_case "select cap is liveness" `Quick
            test_select_cap_is_liveness;
        ] );
      ( "power-cut fs",
        [
          Alcotest.test_case "synced prefix survives" `Quick
            test_power_cut_keeps_synced_prefix;
          Alcotest.test_case "unsynced create rolled back" `Quick
            test_power_cut_rolls_back_unsynced_create;
          Alcotest.test_case "op-crash tears a write" `Quick
            test_op_crash_tears_a_write;
          Alcotest.test_case "missing dirs and rmdir" `Quick
            test_missing_dirs_and_rmdir;
        ] );
      ( "sockets",
        [
          Alcotest.test_case "round-trip and crash EOF" `Quick
            test_socket_roundtrip_and_crash_eof;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "passes and replays" `Slow
            test_schedule_passes_and_replays;
          Alcotest.test_case "crashes hold invariants" `Slow
            test_crashing_schedule_holds_invariants;
        ] );
      ( "mutation teeth",
        [
          Alcotest.test_case "ack-before-fsync caught" `Slow
            test_teeth_ack_before_fsync;
          Alcotest.test_case "no-dir-fsync caught" `Slow
            test_teeth_no_dir_fsync;
        ] );
    ]

(* Tests of the content-addressed result store and its codecs: CRC-32
   against the reference vector, frame classification, cell-record
   round-trips, crash/corruption survival (byte-flip fuzzing, torn
   tails, stale compaction temps) and compaction repair. *)

open Vmbp_store

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* CRC-32 *)

let test_crc32_vector () =
  (* The IEEE 802.3 check value: crc32("123456789"). *)
  check_int "check vector" 0xCBF43926 (Crc32.digest "123456789");
  check_int "sub = whole" (Crc32.digest "456")
    (Crc32.digest_sub "123456789" ~pos:3 ~len:3);
  check_bool "order matters" false (Crc32.digest "ab" = Crc32.digest "ba")

(* ------------------------------------------------------------------ *)
(* Framing *)

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      let line = Frame.encode payload in
      check_bool "newline-terminated" true
        (String.length line > 0 && line.[String.length line - 1] = '\n');
      match Frame.decode (String.sub line 0 (String.length line - 1)) with
      | Frame.Framed p -> check_string "round-trip" payload p
      | _ -> Alcotest.fail "expected Framed")
    [ ""; "x"; "{\"key\":\"a|b|c\"}"; String.make 4096 'z' ]

let test_frame_corruption () =
  let payload = "{\"key\":\"forth/gray|switch\",\"ok\":true}" in
  let line = Frame.encode payload in
  let body = String.sub line 0 (String.length line - 1) in
  (* Flip every byte position in turn: decode must classify each damaged
     line as Corrupt, and never return a Framed payload different from
     the original. *)
  for i = 0 to String.length body - 1 do
    let b = Bytes.of_string body in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
    match Frame.decode (Bytes.unsafe_to_string b) with
    | Frame.Framed p ->
        if p <> payload then
          Alcotest.failf "flip at %d served damaged payload" i
    | Frame.Corrupt -> ()
  done;
  (* Truncations anywhere are never Framed. *)
  for n = 0 to String.length body - 1 do
    match Frame.decode (String.sub body 0 n) with
    | Frame.Framed _ -> Alcotest.failf "truncation to %d framed" n
    | _ -> ()
  done

let test_frame_legacy () =
  (* A bare, unframed line (the pre-framing record format) carries no
     checksum to verify, so nothing may serve it. *)
  match Frame.decode "{\"key\":\"unframed line\"}" with
  | Frame.Corrupt -> ()
  | Frame.Framed _ -> Alcotest.fail "an unframed line must decode as Corrupt"

(* ------------------------------------------------------------------ *)
(* Cell records *)

let sample_success key =
  let m = Vmbp_machine.Metrics.create () in
  m.Vmbp_machine.Metrics.vm_instrs <- 1234;
  m.Vmbp_machine.Metrics.native_instrs <- 9876;
  m.Vmbp_machine.Metrics.dispatches <- 1233;
  m.Vmbp_machine.Metrics.indirect_branches <- 1300;
  m.Vmbp_machine.Metrics.mispredicts <- 777;
  m.Vmbp_machine.Metrics.vm_branch_mispredicts <- 55;
  m.Vmbp_machine.Metrics.icache_fetches <- 4000;
  m.Vmbp_machine.Metrics.icache_misses <- 41;
  m.Vmbp_machine.Metrics.code_bytes <- 512;
  m.Vmbp_machine.Metrics.quickenings <- 7;
  {
    Cellrec.key;
    fingerprint = "fp-1";
    outcome = Ok { Cellrec.metrics = m; steps = 1234; output = "42 \n|x" };
    attempts = 2;
    timed_out = false;
  }

let entry_equal (a : Cellrec.entry) (b : Cellrec.entry) =
  a.Cellrec.key = b.Cellrec.key
  && a.Cellrec.fingerprint = b.Cellrec.fingerprint
  && a.Cellrec.attempts = b.Cellrec.attempts
  && a.Cellrec.timed_out = b.Cellrec.timed_out
  &&
  match (a.Cellrec.outcome, b.Cellrec.outcome) with
  | Ok x, Ok y ->
      x.Cellrec.steps = y.Cellrec.steps
      && x.Cellrec.output = y.Cellrec.output
      && x.Cellrec.metrics = y.Cellrec.metrics
  | Error x, Error y -> x = y
  | _ -> false

let test_cellrec_roundtrip () =
  let e = sample_success "forth/gray|switch|p4|1|default" in
  (match Cellrec.of_line (Cellrec.to_line e) with
  | Some e' -> check_bool "success round-trips" true (entry_equal e e')
  | None -> Alcotest.fail "success line did not parse");
  let err =
    {
      Cellrec.key = "k";
      fingerprint = "fp";
      outcome = Error "trap: div0 \"quoted\"";
      attempts = 3;
      timed_out = true;
    }
  in
  (match Cellrec.of_line (Cellrec.to_line err) with
  | Some e' -> check_bool "error round-trips" true (entry_equal err e')
  | None -> Alcotest.fail "error line did not parse");
  check_bool "garbage rejected" true (Cellrec.of_line "{\"oops\":1}" = None);
  check_bool "non-json rejected" true (Cellrec.of_line "not json" = None)

(* ------------------------------------------------------------------ *)
(* Store *)

(* Run [f] in a fresh store directory of its own (a stale one of the
   same name is removed first), and remove it when [f] returns or
   raises, so a run leaves nothing behind in the temp directory. *)
let with_dir =
  let n = ref 0 in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  fun f ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "vmbp-store-test-%d-%d" (Unix.getpid ()) !n)
    in
    rm dir;
    Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let test_store_basic () =
  with_dir @@ fun dir ->
  let t = Store.open_ ~shards:4 dir in
  check_bool "empty miss" true (Store.lookup t ~key:"a" ~fingerprint:"f" = None);
  let e = sample_success "a" in
  Store.append t { e with Cellrec.fingerprint = "f" };
  check_bool "live table" true
    (Store.lookup t ~key:"a" ~fingerprint:"f" <> None);
  check_bool "fingerprint must match" true
    (Store.lookup t ~key:"a" ~fingerprint:"other" = None);
  check_bool "mem without hit accounting" true
    (Store.mem t ~key:"a" ~fingerprint:"f");
  let s = Store.stats t in
  check_int "one entry" 1 s.Store.entries;
  check_int "one append" 1 s.Store.appended;
  check_int "hits counted" 1 s.Store.served;
  Store.close t;
  (* Reopen under a different shard request: still readable. *)
  let t2 = Store.open_ ~shards:2 dir in
  check_int "reloaded" 1 (Store.stats t2).Store.loaded;
  (match Store.lookup t2 ~key:"a" ~fingerprint:"f" with
  | Some e' ->
      check_bool "round-trips through disk" true
        (entry_equal { e with Cellrec.fingerprint = "f" } e')
  | None -> Alcotest.fail "entry lost across reopen");
  Store.close t2

let test_store_last_write_wins () =
  with_dir @@ fun dir ->
  let t = Store.open_ dir in
  let e = sample_success "k" in
  Store.append t { e with Cellrec.attempts = 1 };
  Store.append t { e with Cellrec.attempts = 9 };
  Store.close t;
  let t2 = Store.open_ dir in
  (match Store.lookup t2 ~key:"k" ~fingerprint:"fp-1" with
  | Some e' -> check_int "last write wins" 9 e'.Cellrec.attempts
  | None -> Alcotest.fail "entry missing");
  check_int "one distinct entry" 1 (Store.stats t2).Store.entries;
  Store.close t2

let populate dir n =
  let t = Store.open_ ~shards:4 dir in
  for i = 0 to n - 1 do
    Store.append t (sample_success (Printf.sprintf "cell-%03d" i))
  done;
  Store.close t

let shard_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".vcas")
  |> List.map (Filename.concat dir)
  |> List.sort compare

(* Satellite: corruption fuzz.  Flip bytes all over the shards; reopening
   must never raise, must count the damage, and must never serve a
   record that differs from what was written. *)
let test_store_corruption_fuzz () =
  let rng = Random.State.make [| 0xC0FFEE |] in
  for _round = 1 to 8 do
    with_dir @@ fun dir ->
    let n = 40 in
    populate dir n;
    List.iter
      (fun file ->
        let ic = open_in_bin file in
        let len = in_channel_length ic in
        let b = Bytes.create len in
        really_input ic b 0 len;
        close_in ic;
        if len > 0 then
          for _ = 1 to 1 + Random.State.int rng 8 do
            let i = Random.State.int rng len in
            Bytes.set b i (Char.chr (Random.State.int rng 256))
          done;
        let oc = open_out_bin file in
        output_bytes oc b;
        close_out oc)
      (shard_files dir);
    let t = Store.open_ ~shards:4 dir in
    let s = Store.stats t in
    check_bool "nothing invented" true (s.Store.loaded <= n);
    let survivors = ref 0 in
    for i = 0 to n - 1 do
      let key = Printf.sprintf "cell-%03d" i in
      match Store.lookup t ~key ~fingerprint:"fp-1" with
      | Some e' ->
          incr survivors;
          check_bool "served record is intact" true
            (entry_equal (sample_success key) e')
      | None -> ()
    done;
    check_int "loaded = served survivors" s.Store.loaded !survivors;
    (* Compaction repairs: after a rewrite and reload, no corruption
       remains and every survivor is still intact. *)
    Store.compact t;
    Store.close t;
    let t2 = Store.open_ ~shards:4 dir in
    let s2 = Store.stats t2 in
    check_int "compaction scrubbed the damage" 0 s2.Store.corrupt;
    check_int "no survivor lost" !survivors s2.Store.loaded;
    Store.close t2
  done

let test_store_torn_tail () =
  with_dir @@ fun dir ->
  populate dir 20;
  (* Tear the tail of every shard mid-record, as kill -9 would. *)
  List.iter
    (fun file ->
      let len = (Unix.stat file).Unix.st_size in
      if len > 10 then
        let fd = Unix.openfile file [ Unix.O_WRONLY ] 0o644 in
        Unix.ftruncate fd (len - 7);
        Unix.close fd)
    (shard_files dir);
  let t = Store.open_ ~shards:4 dir in
  let s = Store.stats t in
  check_bool "torn tails detected" true (s.Store.corrupt > 0);
  check_bool "healthy prefix kept" true (s.Store.loaded > 0);
  Store.close t

let test_store_stale_tmp_removed () =
  with_dir @@ fun dir ->
  populate dir 3;
  let tmp = Filename.concat dir "shard-00.vcas.tmp" in
  let oc = open_out tmp in
  output_string oc "half-written compaction";
  close_out oc;
  let t = Store.open_ ~shards:4 dir in
  check_bool "stale temp removed" false (Sys.file_exists tmp);
  check_int "store unaffected" 3 (Store.stats t).Store.loaded;
  Store.close t

let test_store_io_fault () =
  with_dir @@ fun dir ->
  let t = Store.open_ dir in
  let fire = ref true in
  Store.io_fault_hook := (fun () -> !fire);
  Store.append t (sample_success "dropped");
  Store.io_fault_hook := (fun () -> false);
  fire := false;
  let s = Store.stats t in
  check_int "write error counted" 1 s.Store.write_errors;
  check_bool "still serves from memory" true
    (Store.lookup t ~key:"dropped" ~fingerprint:"fp-1" <> None);
  Store.close t;
  let t2 = Store.open_ dir in
  check_bool "dropped append not on disk" true
    (Store.lookup t2 ~key:"dropped" ~fingerprint:"fp-1" = None);
  Store.close t2

(* Satellite: offline scrub over a deliberately corrupted store.  The
   per-shard reports must count exactly the damage we inflicted, and
   compaction must repair everything scrub counts. *)
let test_store_scrub () =
  with_dir @@ fun dir ->
  let t = Store.open_ ~shards:4 dir in
  for i = 0 to 11 do
    Store.append t (sample_success (Printf.sprintf "cell-%03d" i))
  done;
  (* A stale record: same key re-appended under a new fingerprint. *)
  Store.append t { (sample_success "cell-000") with Cellrec.fingerprint = "fp-2" };
  Store.close t;
  let clean = Store.scrub dir in
  check_int "four shards scanned" 4 (List.length clean);
  let total f reports = List.fold_left (fun a r -> a + f r) 0 reports in
  check_int "13 records" 13 (total (fun r -> r.Store.sr_records) clean);
  check_int "no corruption yet" 0 (total (fun r -> r.Store.sr_corrupt) clean);
  check_int "one stale fingerprint" 1 (total (fun r -> r.Store.sr_stale) clean);
  (* Smash one byte in the middle of the first shard. *)
  (match shard_files dir with
  | file :: _ ->
      let fd = Unix.openfile file [ Unix.O_WRONLY ] 0o644 in
      let mid = (Unix.stat file).Unix.st_size / 2 in
      ignore (Unix.lseek fd mid Unix.SEEK_SET);
      ignore (Unix.write_substring fd "\xff" 0 1);
      Unix.close fd
  | [] -> Alcotest.fail "no shard files");
  let dirty = Store.scrub dir in
  check_bool "corruption counted" true
    (total (fun r -> r.Store.sr_corrupt) dirty > 0);
  check_bool "damage stays in its shard" true
    (List.length (List.filter (fun r -> r.Store.sr_corrupt > 0) dirty) = 1);
  (* Repair in place, as [store scrub --compact] does. *)
  let t = Store.open_ ~shards:4 dir in
  Store.compact t;
  Store.close t;
  let repaired = Store.scrub dir in
  check_int "compaction scrubbed corruption" 0
    (total (fun r -> r.Store.sr_corrupt) repaired);
  check_int "compaction dropped stale records" 0
    (total (fun r -> r.Store.sr_stale) repaired);
  check_bool "survivors intact" true
    (total (fun r -> r.Store.sr_records) repaired >= 11)

let () =
  Alcotest.run "store"
    [
      ( "codec",
        [
          Alcotest.test_case "crc32 vector" `Quick test_crc32_vector;
          Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "frame corruption" `Quick test_frame_corruption;
          Alcotest.test_case "frame legacy" `Quick test_frame_legacy;
          Alcotest.test_case "cellrec round-trip" `Quick
            test_cellrec_roundtrip;
        ] );
      ( "store",
        [
          Alcotest.test_case "basic" `Quick test_store_basic;
          Alcotest.test_case "last write wins" `Quick
            test_store_last_write_wins;
          Alcotest.test_case "corruption fuzz" `Quick
            test_store_corruption_fuzz;
          Alcotest.test_case "torn tail" `Quick test_store_torn_tail;
          Alcotest.test_case "stale tmp removed" `Quick
            test_store_stale_tmp_removed;
          Alcotest.test_case "io fault" `Quick test_store_io_fault;
          Alcotest.test_case "offline scrub" `Quick test_store_scrub;
        ] );
    ]

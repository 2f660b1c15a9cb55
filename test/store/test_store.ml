(* Tests of the content-addressed result store and its codecs: CRC-32
   against the reference vector, frame classification, cell-record
   round-trips, crash/corruption survival (byte-flip fuzzing, torn
   tails, stale compaction temps), compaction repair, and records another
   format wrote, kept unread. *)

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
    metrics = m;
    steps = 1234;
    output = "42 \n|x";
  }

let test_cellrec_roundtrip () =
  let e = sample_success "forth/gray|switch|p4|1|default" in
  (match Cellrec.of_line (Cellrec.to_line e) with
  | Some e' -> check_bool "success round-trips" true (e = e')
  | None -> Alcotest.fail "success line did not parse");
  (* The output is the record's free-form text: quotes, backslashes and
     control characters must survive the escaping. *)
  let quoted =
    { e with Cellrec.output = "div0 \"quoted\" \\ \t\r\001\n" }
  in
  (match Cellrec.of_line (Cellrec.to_line quoted) with
  | Some e' -> check_bool "escaped output round-trips" true (quoted = e')
  | None -> Alcotest.fail "escaped line did not parse");
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
  let t = Store.open_ dir in
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
  (* Reopen: the record comes back from disk. *)
  let t2 = Store.open_ dir in
  check_int "reloaded" 1 (Store.stats t2).Store.loaded;
  (match Store.lookup t2 ~key:"a" ~fingerprint:"f" with
  | Some e' ->
      check_bool "round-trips through disk" true
        ({ e with Cellrec.fingerprint = "f" } = e')
  | None -> Alcotest.fail "entry lost across reopen");
  Store.close t2

let test_store_last_write_wins () =
  with_dir @@ fun dir ->
  let t = Store.open_ dir in
  let e = sample_success "k" in
  Store.append t { e with Cellrec.steps = 1 };
  Store.append t { e with Cellrec.steps = 9 };
  Store.close t;
  let t2 = Store.open_ dir in
  (match Store.lookup t2 ~key:"k" ~fingerprint:"fp-1" with
  | Some e' -> check_int "last write wins" 9 e'.Cellrec.steps
  | None -> Alcotest.fail "entry missing");
  check_int "one distinct entry" 1 (Store.stats t2).Store.entries;
  Store.close t2

let populate dir n =
  let t = Store.open_ dir in
  for i = 0 to n - 1 do
    Store.append t (sample_success (Printf.sprintf "cell-%03d" i))
  done;
  Store.close t

let store_file dir = Filename.concat dir "cells.vcas"

(* Write [payloads] to a fresh store file, each framed as an append
   would frame it. *)
let write_framed dir payloads =
  Unix.mkdir dir 0o755;
  let oc = open_out_bin (store_file dir) in
  List.iter (fun p -> output_string oc (Frame.encode p)) payloads;
  close_out oc

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A failure record as an older build wrote it is intact but not a
   record this format reads: counted unreadable, never served, and kept
   by compaction. *)
let test_store_failure_record_unreadable () =
  with_dir @@ fun dir ->
  write_framed dir
    [
      {|{"key":"k","fp":"fp-1","attempts":2,"timed_out":true,|}
      ^ {|"ok":false,"error":"timed out after 0.1s"}|};
    ];
  let before = read_file (store_file dir) in
  let t = Store.open_ dir in
  let s = Store.stats t in
  check_int "counted unreadable" 1 s.Store.unreadable;
  check_int "not corrupt" 0 s.Store.corrupt;
  check_int "nothing loaded" 0 s.Store.loaded;
  check_bool "not served" true
    (Store.lookup t ~key:"k" ~fingerprint:"fp-1" = None);
  Store.compact t;
  Store.close t;
  check_string "kept byte-identical" before (read_file (store_file dir));
  check_bool "scrub counts it unreadable, not corrupt" true
    (List.map
       (fun r ->
         (r.Store.sr_records, r.Store.sr_corrupt, r.Store.sr_unreadable))
       (Store.scrub dir)
    = [ (0, 0, 1) ])

(* A record a newer format wrote, beside one this build reads: opening
   and compacting the store serves the one and keeps the other byte for
   byte, after this build's records. *)
let test_store_future_record_survives () =
  with_dir @@ fun dir ->
  let future =
    Frame.encode
      {|{"format":2,"key":"k2","fp":"fp-1","ok":true,"counters":"v2"}|}
  in
  let t = Store.open_ dir in
  Store.append t (sample_success "k1");
  Store.close t;
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 (store_file dir) in
  output_string oc future;
  close_out oc;
  let t = Store.open_ dir in
  check_int "one unreadable" 1 (Store.stats t).Store.unreadable;
  Store.compact t;
  Store.append t (sample_success "k3");
  Store.close t;
  let t = Store.open_ dir in
  let s = Store.stats t in
  check_int "still unreadable after compaction" 1 s.Store.unreadable;
  check_int "readable records load" 2 s.Store.loaded;
  check_bool "k1 serves" true
    (Store.lookup t ~key:"k1" ~fingerprint:"fp-1" <> None);
  check_bool "k2 does not" true
    (Store.lookup t ~key:"k2" ~fingerprint:"fp-1" = None);
  Store.close t;
  let contents = read_file (store_file dir) in
  let k1 = Frame.encode (Cellrec.to_line (sample_success "k1")) in
  check_bool "compaction wrote k1, then the future line, byte for byte" true
    (String.starts_with ~prefix:(k1 ^ future) contents)

(* A success record as an older build wrote it, with its [attempts] and
   [timed_out] fields, loads and serves unchanged. *)
let test_store_older_record_serves () =
  with_dir @@ fun dir ->
  let e = sample_success "forth/gray|switch|p4|1|default" in
  write_framed dir
    [
      {|{"key":"forth/gray|switch|p4|1|default","fp":"fp-1","attempts":1,|}
      ^ {|"timed_out":false,"ok":true,"steps":1234,"output":"42 \n|x",|}
      ^ {|"vm_instrs":1234,"native_instrs":9876,"dispatches":1233,|}
      ^ {|"indirect_branches":1300,"mispredicts":777,|}
      ^ {|"vm_branch_mispredicts":55,"icache_fetches":4000,|}
      ^ {|"icache_misses":41,"code_bytes":512,"quickenings":7}|};
    ];
  let t = Store.open_ dir in
  let s = Store.stats t in
  check_int "loaded" 1 s.Store.loaded;
  check_int "nothing corrupt" 0 s.Store.corrupt;
  (match Store.lookup t ~key:e.Cellrec.key ~fingerprint:"fp-1" with
  | Some e' -> check_bool "served intact" true (e = e')
  | None -> Alcotest.fail "the older record must serve");
  Store.close t

(* Corruption fuzz.  Flip bytes all over the store file; reopening must
   never raise, must count the damage, and must never serve a record
   that differs from what was written. *)
let test_store_corruption_fuzz () =
  let rng = Random.State.make [| 0xC0FFEE |] in
  for _round = 1 to 8 do
    with_dir @@ fun dir ->
    let n = 40 in
    populate dir n;
    let file = store_file dir in
    let ic = open_in_bin file in
    let len = in_channel_length ic in
    let b = Bytes.create len in
    really_input ic b 0 len;
    close_in ic;
    for _ = 1 to 1 + Random.State.int rng 8 do
      let i = Random.State.int rng len in
      Bytes.set b i (Char.chr (Random.State.int rng 256))
    done;
    let oc = open_out_bin file in
    output_bytes oc b;
    close_out oc;
    let t = Store.open_ dir in
    let s = Store.stats t in
    check_bool "nothing invented" true (s.Store.loaded <= n);
    let survivors = ref 0 in
    for i = 0 to n - 1 do
      let key = Printf.sprintf "cell-%03d" i in
      match Store.lookup t ~key ~fingerprint:"fp-1" with
      | Some e' ->
          incr survivors;
          check_bool "served record is intact" true (sample_success key = e')
      | None -> ()
    done;
    check_int "loaded = served survivors" s.Store.loaded !survivors;
    (* Compaction repairs: after a rewrite and reload, no corruption
       remains and every survivor is still intact. *)
    Store.compact t;
    Store.close t;
    let t2 = Store.open_ dir in
    let s2 = Store.stats t2 in
    check_int "compaction scrubbed the damage" 0 s2.Store.corrupt;
    check_int "no survivor lost" !survivors s2.Store.loaded;
    Store.close t2
  done

let test_store_torn_tail () =
  with_dir @@ fun dir ->
  populate dir 20;
  (* Tear the tail of the file mid-record, as kill -9 would. *)
  let file = store_file dir in
  let fd = Unix.openfile file [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd ((Unix.stat file).Unix.st_size - 7);
  Unix.close fd;
  let t = Store.open_ dir in
  let s = Store.stats t in
  check_bool "torn tails detected" true (s.Store.corrupt > 0);
  check_bool "healthy prefix kept" true (s.Store.loaded > 0);
  Store.close t

let test_store_stale_tmp_removed () =
  with_dir @@ fun dir ->
  populate dir 3;
  let tmp = store_file dir ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc "half-written compaction";
  close_out oc;
  let t = Store.open_ dir in
  check_bool "stale temp removed" false (Sys.file_exists tmp);
  check_int "store unaffected" 3 (Store.stats t).Store.loaded;
  Store.close t

(* The store-io chaos point fires inside [Store.append] itself, with no
   runner linked in. *)
let test_store_io_fault () =
  with_dir @@ fun dir ->
  let t = Store.open_ dir in
  (match Vmbp_sim.Faults.configure "store-io=1" with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Fun.protect ~finally:Vmbp_sim.Faults.reset (fun () ->
      Store.append t (sample_success "dropped");
      Store.append t (sample_success "kept"));
  let s = Store.stats t in
  check_int "write error counted" 1 s.Store.write_errors;
  check_int "the next append lands" 1 s.Store.appended;
  check_bool "still serves from memory" true
    (Store.lookup t ~key:"dropped" ~fingerprint:"fp-1" <> None);
  Store.close t;
  let t2 = Store.open_ dir in
  check_bool "dropped append not on disk" true
    (Store.lookup t2 ~key:"dropped" ~fingerprint:"fp-1" = None);
  check_bool "kept append on disk" true
    (Store.lookup t2 ~key:"kept" ~fingerprint:"fp-1" <> None);
  Store.close t2

(* Offline scrub over a deliberately corrupted store.  The report of
   the one store file must count exactly the damage we inflicted, and
   compaction must repair everything scrub counts. *)
let test_store_scrub () =
  with_dir @@ fun dir ->
  let t = Store.open_ dir in
  for i = 0 to 11 do
    Store.append t (sample_success (Printf.sprintf "cell-%03d" i))
  done;
  (* A stale record: same key re-appended under a new fingerprint. *)
  Store.append t { (sample_success "cell-000") with Cellrec.fingerprint = "fp-2" };
  Store.close t;
  let clean = Store.scrub dir in
  check_bool "one store file scanned" true
    (List.map (fun r -> r.Store.sr_file) clean = [ "cells.vcas" ]);
  let total f reports = List.fold_left (fun a r -> a + f r) 0 reports in
  check_int "13 records" 13 (total (fun r -> r.Store.sr_records) clean);
  check_int "no corruption yet" 0 (total (fun r -> r.Store.sr_corrupt) clean);
  check_int "one stale fingerprint" 1 (total (fun r -> r.Store.sr_stale) clean);
  (* Smash one byte in the middle of the file. *)
  let file = store_file dir in
  let fd = Unix.openfile file [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd ((Unix.stat file).Unix.st_size / 2) Unix.SEEK_SET);
  ignore (Unix.write_substring fd "\xff" 0 1);
  Unix.close fd;
  let dirty = Store.scrub dir in
  check_bool "corruption counted" true
    (total (fun r -> r.Store.sr_corrupt) dirty > 0);
  (* Repair in place, as [store scrub --compact] does. *)
  let t = Store.open_ dir in
  Store.compact t;
  Store.close t;
  let repaired = Store.scrub dir in
  check_int "compaction scrubbed corruption" 0
    (total (fun r -> r.Store.sr_corrupt) repaired);
  check_int "compaction dropped stale records" 0
    (total (fun r -> r.Store.sr_stale) repaired);
  check_bool "survivors intact" true
    (total (fun r -> r.Store.sr_records) repaired >= 11)

(* A key re-appended under a new fingerprint after a reopen: the newer
   record is the current one, for scrub and for compaction alike.  ["b"]
   is a key the older sharded layout moved to an earlier file when a
   store reopened with more shards, which made compaction keep its older
   record. *)
let test_store_current_survives_compaction () =
  with_dir @@ fun dir ->
  let a = sample_success "b" in
  let b = { a with Cellrec.fingerprint = "fp-2" } in
  let t = Store.open_ dir in
  Store.append t a;
  Store.close t;
  let t = Store.open_ dir in
  Store.append t b;
  Store.close t;
  let stale =
    List.fold_left (fun n r -> n + r.Store.sr_stale) 0 (Store.scrub dir)
  in
  check_int "one record is stale" 1 stale;
  let t = Store.open_ dir in
  Store.compact t;
  Store.close t;
  let t = Store.open_ dir in
  check_bool "(b, B) is served" true
    (Store.lookup t ~key:"b" ~fingerprint:"fp-2" <> None);
  check_bool "(b, A) is gone" true
    (Store.lookup t ~key:"b" ~fingerprint:"fp-1" = None);
  Store.close t

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
          Alcotest.test_case "failure record kept unreadable" `Quick
            test_store_failure_record_unreadable;
          Alcotest.test_case "future record survives compaction" `Quick
            test_store_future_record_survives;
          Alcotest.test_case "older success record serves" `Quick
            test_store_older_record_serves;
          Alcotest.test_case "corruption fuzz" `Quick
            test_store_corruption_fuzz;
          Alcotest.test_case "torn tail" `Quick test_store_torn_tail;
          Alcotest.test_case "stale tmp removed" `Quick
            test_store_stale_tmp_removed;
          Alcotest.test_case "io fault" `Quick test_store_io_fault;
          Alcotest.test_case "offline scrub" `Quick test_store_scrub;
          Alcotest.test_case "current fingerprint survives compaction"
            `Quick test_store_current_survives_compaction;
        ] );
    ]

(* Tests for the observability library: the metrics registry (bucket
   boundary semantics, int64 counter accumulation, cross-domain updates),
   the span recorder (nesting, ordering, exception safety, the Chrome
   trace-event rendering) and the attribution tables. *)

open Vmbp_obs

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Registry: counters *)

let test_counter_basics () =
  Registry.reset ();
  let c = Registry.counter "t.basic" in
  Registry.add c 3;
  Registry.add c 4;
  Alcotest.(check int64) "sum" 7L (Registry.counter_value c);
  (* Re-fetching by name returns the same instrument. *)
  let c' = Registry.counter "t.basic" in
  Registry.add c' 1;
  Alcotest.(check int64) "shared" 8L (Registry.counter_value c);
  Alcotest.(check (option int64)) "find" (Some 8L)
    (Registry.find_counter "t.basic");
  Alcotest.(check (option int64)) "find missing" None
    (Registry.find_counter "t.absent");
  Alcotest.(check int) "count" 8 (Registry.count "t.basic");
  Alcotest.(check int) "count missing" 0 (Registry.count "t.absent")

let test_counter_overflow () =
  Registry.reset ();
  let c = Registry.counter "t.overflow" in
  (* Two native max_int increments exceed any int but must accumulate
     exactly in the int64 domain: 2 * (2^62 - 1). *)
  Registry.add c max_int;
  Registry.add c max_int;
  let expected = Int64.mul 2L (Int64.of_int max_int) in
  Alcotest.(check int64) "no wrap" expected (Registry.counter_value c);
  Registry.add_int64 c 5L;
  Alcotest.(check int64) "int64 add" (Int64.add expected 5L)
    (Registry.counter_value c)

let test_counter_concurrent () =
  Registry.reset ();
  let c = Registry.counter "t.concurrent" in
  let per_domain = 10_000 and domains = 4 in
  let worker () =
    for _ = 1 to per_domain do
      Registry.add c 1
    done
  in
  let ds = Array.init domains (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join ds;
  (* The mutex must make every increment land: a lost update shows up as
     an exact-count failure here. *)
  Alcotest.(check int64) "no lost increments"
    (Int64.of_int (domains * per_domain))
    (Registry.counter_value c)

let test_kind_clash () =
  Registry.reset ();
  let (_ : Registry.counter) = Registry.counter "t.clash" in
  match Registry.gauge "t.clash" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Registry: gauges and histograms *)

let test_gauge () =
  Registry.reset ();
  let g = Registry.gauge "t.gauge" in
  Registry.gauge_add g 2.;
  Registry.gauge_add g 3.;
  Registry.gauge_add g (-4.);
  Alcotest.(check (float 0.)) "value" 1. (Registry.gauge_value g);
  Alcotest.(check (float 0.)) "high-water" 5. (Registry.gauge_max g);
  Registry.gauge_set g 10.;
  Alcotest.(check (float 0.)) "set" 10. (Registry.gauge_value g);
  Alcotest.(check (float 0.)) "max follows set" 10. (Registry.gauge_max g)

let test_histogram_boundaries () =
  Registry.reset ();
  let h = Registry.histogram ~bounds:[| 1.; 2.; 4. |] "t.hist" in
  (* le-bucket semantics: v lands in the first bucket with v <= bound. *)
  Registry.observe h 0.5;
  (* exactly on a bound stays in that bound's bucket *)
  Registry.observe h 1.0;
  (* just past a bound falls through to the next *)
  Registry.observe h 1.0000001;
  Registry.observe h 4.0;
  (* past the last bound lands in the overflow bucket *)
  Registry.observe h 5.0;
  let bounds, counts, sum, count = Registry.histogram_snapshot h in
  Alcotest.(check (array (float 0.))) "bounds" [| 1.; 2.; 4. |] bounds;
  Alcotest.(check (array int)) "counts" [| 2; 1; 1; 1 |] counts;
  Alcotest.(check int) "count" 5 count;
  Alcotest.(check (float 1e-6)) "sum" 11.5000001 sum

let test_histogram_rejects_bad_bounds () =
  Registry.reset ();
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Registry.histogram: bounds must be strictly increasing")
    (fun () ->
      ignore (Registry.histogram ~bounds:[| 1.; 1. |] "t.hist-bad"));
  Alcotest.check_raises "empty"
    (Invalid_argument "Registry.histogram: bounds must be non-empty")
    (fun () -> ignore (Registry.histogram ~bounds:[||] "t.hist-empty"))

let test_reset_keeps_handles () =
  Registry.reset ();
  let c = Registry.counter "t.reset" in
  let h = Registry.histogram ~bounds:[| 1. |] "t.reset-hist" in
  Registry.add c 7;
  Registry.observe h 0.5;
  Registry.reset ();
  Alcotest.(check int64) "counter zeroed" 0L (Registry.counter_value c);
  let _, counts, _, count = Registry.histogram_snapshot h in
  Alcotest.(check int) "histogram zeroed" 0 count;
  Alcotest.(check (array int)) "buckets zeroed" [| 0; 0 |] counts;
  (* The old handle still works after the reset. *)
  Registry.add c 1;
  Alcotest.(check int64) "handle alive" 1L (Registry.counter_value c)

let test_histogram_quantile () =
  Registry.reset ();
  let h = Registry.histogram ~bounds:[| 1.; 2.; 4. |] "t.quant" in
  (* No samples: nan, not an arbitrary bound. *)
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Registry.histogram_quantile h 0.5));
  Registry.observe h 0.5;
  Registry.observe h 1.5;
  Registry.observe h 3.;
  Registry.observe h 3.5;
  (* Quantiles interpolate linearly within the target's bucket. *)
  Alcotest.(check (float 1e-9)) "p25" 1. (Registry.histogram_quantile h 0.25);
  Alcotest.(check (float 1e-9)) "p50" 2. (Registry.histogram_quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p99" 3.96
    (Registry.histogram_quantile h 0.99);
  (* Overflow samples clamp to the last finite bound rather than inventing
     an infinite latency. *)
  Registry.observe h 100.;
  Registry.observe h 200.;
  Registry.observe h 300.;
  Alcotest.(check (float 0.)) "overflow clamps" 4.
    (Registry.histogram_quantile h 0.99)

let test_prometheus_exposition () =
  Registry.reset ();
  let c = Registry.counter "t.prom.count" in
  Registry.add c 7;
  let g = Registry.gauge "t.prom.gauge" in
  Registry.gauge_set g 3.5;
  Registry.gauge_set g 2.0;
  let h =
    Registry.histogram ~bounds:[| 1.; 10. |] "t.prom.lat{verb=query}"
  in
  Registry.observe h 0.5;
  Registry.observe h 20.;
  let p = Registry.to_prometheus () in
  (* Names mangle to the vmbp_ namespace; counters gain _total. *)
  Alcotest.(check bool) "counter" true
    (contains p "vmbp_t_prom_count_total 7");
  Alcotest.(check bool) "counter TYPE" true
    (contains p "# TYPE vmbp_t_prom_count_total counter");
  Alcotest.(check bool) "gauge value" true (contains p "vmbp_t_prom_gauge 2");
  Alcotest.(check bool) "gauge high-water" true
    (contains p "vmbp_t_prom_gauge_max 3.5");
  (* The {k=v} suffix of the instrument name splits into real labels. *)
  Alcotest.(check bool) "labelled bucket" true
    (contains p "vmbp_t_prom_lat_bucket{verb=\"query\",le=\"1\"} 1");
  Alcotest.(check bool) "+Inf bucket" true
    (contains p "vmbp_t_prom_lat_bucket{verb=\"query\",le=\"+Inf\"} 2");
  Alcotest.(check bool) "hist count" true
    (contains p "vmbp_t_prom_lat_count{verb=\"query\"} 2");
  (* Equal states expose byte-identically. *)
  Alcotest.(check string) "deterministic" p (Registry.to_prometheus ())

let test_registry_json () =
  Registry.reset ();
  let c = Registry.counter "t.json-counter" in
  Registry.add c 42;
  let g = Registry.gauge "t.json-gauge" in
  Registry.gauge_set g 2.5;
  let h = Registry.histogram ~bounds:[| 1.; 10. |] "t.json-hist" in
  Registry.observe h 3.;
  let j = Registry.to_json () in
  Alcotest.(check bool) "schema" true (contains j "\"schema\":\"vmbp-metrics/1\"");
  Alcotest.(check bool) "counter" true (contains j "\"t.json-counter\":42");
  Alcotest.(check bool) "gauge" true (contains j "\"t.json-gauge\":{\"value\":2.5");
  Alcotest.(check bool) "hist counts" true (contains j "\"counts\":[0,1,0]");
  (* Equal states render byte-identically (sorted names, no timestamps). *)
  Alcotest.(check string) "deterministic" j (Registry.to_json ())

(* ------------------------------------------------------------------ *)
(* Spans *)

let test_span_disabled_is_passthrough () =
  Span.disable ();
  let r = Span.with_ ~name:"ignored" (fun () -> 41 + 1) in
  Alcotest.(check int) "result" 42 r;
  Alcotest.(check int) "nothing recorded" 0 (Span.count ())

let test_span_nesting_and_order () =
  Span.enable ();
  Fun.protect ~finally:Span.disable @@ fun () ->
  let r =
    Span.with_ ~name:"outer" ~args:[ ("k", "v") ] (fun () ->
        let a = Span.with_ ~name:"inner-a" (fun () -> 1) in
        let b = Span.with_ ~name:"inner-b" (fun () -> 2) in
        a + b)
  in
  Alcotest.(check int) "result" 3 r;
  let ev = Span.events () in
  Alcotest.(check (list string)) "completion order"
    [ "inner-a"; "inner-b"; "outer" ]
    (List.map (fun e -> e.Span.name) ev);
  let outer = List.nth ev 2 and ia = List.nth ev 0 and ib = List.nth ev 1 in
  (* Time containment is what Perfetto uses to infer nesting. *)
  Alcotest.(check bool) "a starts inside outer" true (ia.Span.ts >= outer.Span.ts);
  Alcotest.(check bool) "a ends inside outer" true
    (ia.Span.ts +. ia.Span.dur <= outer.Span.ts +. outer.Span.dur +. 1e-9);
  Alcotest.(check bool) "b after a" true (ib.Span.ts >= ia.Span.ts +. ia.Span.dur -. 1e-9);
  Alcotest.(check (list (pair string string))) "args" [ ("k", "v") ] outer.Span.args

let test_span_exception_safety () =
  Span.enable ();
  Fun.protect ~finally:Span.disable @@ fun () ->
  (match Span.with_ ~name:"failing" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure m -> Alcotest.(check string) "reraised" "boom" m);
  Alcotest.(check int) "span recorded anyway" 1 (Span.count ())

let test_span_json () =
  Span.enable ();
  Fun.protect ~finally:Span.disable @@ fun () ->
  ignore (Span.with_ ~name:"phase" ~args:[ ("cell", "w/x\"y") ] (fun () -> ()));
  let j = Span.to_json () in
  Alcotest.(check bool) "traceEvents" true (contains j "\"traceEvents\":[");
  Alcotest.(check bool) "complete event" true (contains j "\"ph\":\"X\"");
  Alcotest.(check bool) "name" true (contains j "\"name\":\"phase\"");
  Alcotest.(check bool) "args escaped" true (contains j "\"cell\":\"w/x\\\"y\"");
  Alcotest.(check bool) "pid" true (contains j "\"pid\":1")

let test_span_enable_clears () =
  Span.enable ();
  ignore (Span.with_ ~name:"old" (fun () -> ()));
  Span.enable ();
  Fun.protect ~finally:Span.disable @@ fun () ->
  Alcotest.(check int) "cleared" 0 (Span.count ())

let test_span_linkage () =
  Span.enable ();
  Fun.protect ~finally:Span.disable @@ fun () ->
  Span.with_ ~name:"outer" ~trace:"r1" (fun () ->
      Span.with_ ~name:"inner" (fun () -> ()));
  Span.interval ~name:"flush" ~trace:"r1" 0.1 0.2;
  let ev = Span.events () in
  let find n = List.find (fun e -> e.Span.name = n) ev in
  let outer = find "outer" and inner = find "inner" and fl = find "flush" in
  (* Ids are allocated at span start from a counter reset by enable, so a
     deterministic schedule yields deterministic ids: outer opens first. *)
  Alcotest.(check int) "outer id" 0 outer.Span.id;
  Alcotest.(check int) "inner id" 1 inner.Span.id;
  Alcotest.(check int) "outer is a root" (-1) outer.Span.parent;
  Alcotest.(check int) "inner's parent is outer" outer.Span.id
    inner.Span.parent;
  Alcotest.(check string) "trace threads" "r1" outer.Span.trace;
  Alcotest.(check string) "inner unlinked" "" inner.Span.trace;
  (* interval outside any with_ scope is a root too. *)
  Alcotest.(check int) "interval parent" (-1) fl.Span.parent;
  Alcotest.(check bool) "interval duration" true
    (Float.abs (fl.Span.dur -. 0.1) < 1e-9);
  (* The linkage renders as string-valued args (trace.schema.json keeps
     args values strings for stock viewers). *)
  let j = Span.to_json () in
  Alcotest.(check bool) "span arg" true (contains j "\"span\":\"0\"");
  Alcotest.(check bool) "parent arg" true (contains j "\"parent\":\"0\"");
  Alcotest.(check bool) "trace arg" true (contains j "\"trace\":\"r1\"")

(* Spans and flight entries read the installed environment's clock, as
   they do under the simulator. *)
let test_span_clock () =
  let env = Vmbp_sim.Env.current in
  let prev = !env in
  env := { prev with Vmbp_sim.Env.now = (fun () -> 42.0) };
  Span.enable ();
  Fun.protect
    ~finally:(fun () ->
      Span.disable ();
      env := prev;
      Flight.reset ())
  @@ fun () ->
  Span.with_ ~name:"tick" (fun () -> ());
  let e = List.hd (Span.events ()) in
  (* ts is relative to the enable-time origin, both on the same clock. *)
  Alcotest.(check (float 0.)) "origin anchored" 0.0 e.Span.ts;
  Alcotest.(check (float 0.)) "zero duration" 0.0 e.Span.dur;
  Flight.reset ();
  Flight.note ~kind:"tick" "";
  Alcotest.(check (float 0.)) "flight ts" 42.0
    (List.hd (Flight.entries ())).Flight.ts

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

let test_flight_ring () =
  Flight.reset ();
  Alcotest.(check int) "empty" 0 (Flight.recorded ());
  Flight.note ~kind:"accept" "conn=1";
  Flight.note ~kind:"enqueue" "rid=r1";
  Alcotest.(check int) "recorded" 2 (Flight.recorded ());
  (match Flight.entries () with
  | [ a; b ] ->
      Alcotest.(check int) "seq 0" 0 a.Flight.seq;
      Alcotest.(check int) "seq 1" 1 b.Flight.seq;
      Alcotest.(check string) "kind" "accept" a.Flight.kind;
      Alcotest.(check string) "detail" "rid=r1" b.Flight.detail
  | l -> Alcotest.failf "unexpected entry count %d" (List.length l));
  let j = Flight.to_json ~reason:"crash" () in
  Alcotest.(check bool) "schema" true (contains j "\"schema\":\"vmbp-flight/1\"");
  Alcotest.(check bool) "reason" true (contains j "\"reason\":\"crash\"");
  Alcotest.(check bool) "dropped" true (contains j "\"dropped\":0");
  Flight.reset ();
  Alcotest.(check int) "reset clears" 0 (Flight.recorded ())

let test_flight_wraparound () =
  Flight.reset ();
  let extra = 100 in
  for i = 0 to Flight.capacity + extra - 1 do
    Flight.note ~kind:"tick" (string_of_int i)
  done;
  Alcotest.(check int) "total recorded"
    (Flight.capacity + extra)
    (Flight.recorded ());
  let es = Flight.entries () in
  Alcotest.(check int) "ring is full" Flight.capacity (List.length es);
  (* The oldest entries were overwritten: what survives is exactly the
     most recent [capacity] notes, in sequence order. *)
  let first = List.hd es and last = List.nth es (List.length es - 1) in
  Alcotest.(check int) "oldest surviving seq" extra first.Flight.seq;
  Alcotest.(check int) "newest seq"
    (Flight.capacity + extra - 1)
    last.Flight.seq;
  Alcotest.(check bool) "dropped counted" true
    (contains (Flight.to_json ()) (Printf.sprintf "\"dropped\":%d" extra));
  Flight.reset ()

let test_flight_concurrent () =
  Flight.reset ();
  let per = 1000 and domains = 4 in
  let ds =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              Flight.note ~kind:"race" (Printf.sprintf "%d-%d" d i)
            done))
  in
  Array.iter Domain.join ds;
  Alcotest.(check int) "no lost notes" (per * domains) (Flight.recorded ());
  (* Sequence numbers of the survivors are unique and ordered. *)
  let seqs = List.map (fun e -> e.Flight.seq) (Flight.entries ()) in
  Alcotest.(check (list int)) "unique ordered" (List.sort_uniq compare seqs)
    seqs;
  Flight.reset ()

(* ------------------------------------------------------------------ *)
(* JSON *)

(* The one JSON string escaper: short escapes for quote, backslash,
   newline, return and tab, \u00XX for the other control characters,
   everything else as is. *)
let test_json_escape () =
  Alcotest.(check string)
    "escapes" {|a\"b\\c\nd\re\tf\u0001g|}
    (Vmbp_obs.Json.escape "a\"b\\c\nd\re\tf\x01g")

(* ------------------------------------------------------------------ *)
(* Attribution *)

let test_attribution_buckets () =
  let t = Attribution.create () in
  Attribution.note t ~opcode:3 ~branch:100 ~set:0 Attribution.Cold;
  Attribution.note t ~opcode:3 ~branch:100 ~set:0 Attribution.Wrong_target;
  Attribution.note t ~opcode:3 ~branch:100 ~set:0 Attribution.Wrong_target;
  Attribution.note t ~opcode:5 ~branch:200 ~set:1 (Attribution.Conflict 3);
  Alcotest.(check int) "total" 4 (Attribution.total t);
  (match Attribution.by_opcode t with
  | [ (3, b3); (5, b5) ] ->
      Alcotest.(check int) "op3 cold" 1 b3.Attribution.cold;
      Alcotest.(check int) "op3 wrong" 2 b3.Attribution.wrong;
      Alcotest.(check int) "op3 total" 3 (Attribution.bucket_total b3);
      Alcotest.(check int) "op5 conflict" 1 b5.Attribution.conflict
  | l -> Alcotest.failf "unexpected by_opcode shape (%d rows)" (List.length l));
  Alcotest.(check (list (pair (triple int int int) int)))
    "conflict pairs"
    [ ((5, 3, 1), 1) ]
    (Attribution.conflicts t)

let test_attribution_sets () =
  let t = Attribution.create () in
  Attribution.note t ~opcode:1 ~branch:10 ~set:0 Attribution.Cold;
  Attribution.note t ~opcode:1 ~branch:10 ~set:0 Attribution.Wrong_target;
  Attribution.note t ~opcode:2 ~branch:20 ~set:2 Attribution.Cold;
  (* set = -1 (no set structure) counts toward the total but not the maps *)
  Attribution.note t ~opcode:9 ~branch:30 ~set:(-1) Attribution.Cold;
  Alcotest.(check int) "total includes setless" 4 (Attribution.total t);
  Alcotest.(check (array int)) "events per set" [| 2; 0; 1 |]
    (Attribution.set_counts t ~nsets:3);
  (* branch 10 hit set 0 twice but is one distinct address *)
  Alcotest.(check (array int)) "occupancy" [| 1; 0; 1 |]
    (Attribution.set_occupancy t ~nsets:3)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "counter int64 accumulation" `Quick
            test_counter_overflow;
          Alcotest.test_case "concurrent domain updates" `Quick
            test_counter_concurrent;
          Alcotest.test_case "instrument kind clash" `Quick test_kind_clash;
          Alcotest.test_case "gauge value and high-water" `Quick test_gauge;
          Alcotest.test_case "histogram bucket boundaries" `Quick
            test_histogram_boundaries;
          Alcotest.test_case "histogram rejects bad bounds" `Quick
            test_histogram_rejects_bad_bounds;
          Alcotest.test_case "reset keeps handles" `Quick
            test_reset_keeps_handles;
          Alcotest.test_case "quantiles: empty, interpolation, overflow"
            `Quick test_histogram_quantile;
          Alcotest.test_case "Prometheus exposition" `Quick
            test_prometheus_exposition;
          Alcotest.test_case "JSON rendering" `Quick test_registry_json;
        ] );
      ( "span",
        [
          Alcotest.test_case "disabled is pass-through" `Quick
            test_span_disabled_is_passthrough;
          Alcotest.test_case "nesting and ordering" `Quick
            test_span_nesting_and_order;
          Alcotest.test_case "records on exception" `Quick
            test_span_exception_safety;
          Alcotest.test_case "Chrome trace JSON" `Quick test_span_json;
          Alcotest.test_case "enable clears" `Quick test_span_enable_clears;
          Alcotest.test_case "ids, parents and trace linkage" `Quick
            test_span_linkage;
          Alcotest.test_case "substitutable clock" `Quick test_span_clock;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring bookkeeping and JSON" `Quick
            test_flight_ring;
          Alcotest.test_case "wraparound keeps the newest" `Quick
            test_flight_wraparound;
          Alcotest.test_case "concurrent notes" `Quick test_flight_concurrent;
        ] );
      ( "json",
        [ Alcotest.test_case "string escaper" `Quick test_json_escape ] );
      ( "attribution",
        [
          Alcotest.test_case "bucket bookkeeping" `Quick
            test_attribution_buckets;
          Alcotest.test_case "set maps" `Quick test_attribution_sets;
        ] );
    ]

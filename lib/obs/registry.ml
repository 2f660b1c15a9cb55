type counter = { mutable c : int64 }
type gauge = { mutable g : float; mutable g_max : float }

type histogram = {
  bounds : float array;
  counts : int array;  (* length = Array.length bounds + 1; overflow last *)
  mutable sum : float;
  mutable n : int;
}

type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

let lock = Mutex.create ()
let table : (string, instrument) Hashtbl.t = Hashtbl.create 64

let counter name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some (Counter c) -> c
      | Some _ ->
          invalid_arg
            (Printf.sprintf
               "Registry.counter: '%s' is already a different instrument kind"
               name)
      | None ->
          let c = { c = 0L } in
          Hashtbl.replace table name (Counter c);
          c)

let add c n =
  Mutex.protect lock (fun () -> c.c <- Int64.add c.c (Int64.of_int n))
let add_int64 c n = Mutex.protect lock (fun () -> c.c <- Int64.add c.c n)
let counter_value c = Mutex.protect lock (fun () -> c.c)

let find_counter name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some (Counter c) -> Some c.c
      | _ -> None)

let count name = Int64.to_int (Option.value ~default:0L (find_counter name))

let gauge name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some (Gauge g) -> g
      | Some _ ->
          invalid_arg
            (Printf.sprintf
               "Registry.gauge: '%s' is already a different instrument kind"
               name)
      | None ->
          let g = { g = 0.; g_max = 0. } in
          Hashtbl.replace table name (Gauge g);
          g)

let gauge_set g v =
  Mutex.protect lock (fun () ->
      g.g <- v;
      if v > g.g_max then g.g_max <- v)

let gauge_add g dv =
  Mutex.protect lock (fun () ->
      g.g <- g.g +. dv;
      if g.g > g.g_max then g.g_max <- g.g)

let gauge_value g = Mutex.protect lock (fun () -> g.g)
let gauge_max g = Mutex.protect lock (fun () -> g.g_max)

let histogram ~bounds name =
  if Array.length bounds = 0 then
    invalid_arg "Registry.histogram: bounds must be non-empty";
  Array.iteri
    (fun i b ->
      if i > 0 && not (b > bounds.(i - 1)) then
        invalid_arg "Registry.histogram: bounds must be strictly increasing")
    bounds;
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some (Histogram h) ->
          if h.bounds <> bounds then
            invalid_arg
              (Printf.sprintf
                 "Registry.histogram: '%s' is already registered with \
                  different bounds"
                 name)
          else h
      | Some _ ->
          invalid_arg
            (Printf.sprintf
               "Registry.histogram: '%s' is already a different instrument \
                kind"
               name)
      | None ->
          let h =
            {
              bounds = Array.copy bounds;
              counts = Array.make (Array.length bounds + 1) 0;
              sum = 0.;
              n = 0;
            }
          in
          Hashtbl.replace table name (Histogram h);
          h)

(* An observation [v] lands in the first bucket with [v <= bound]; past
   the last bound it lands in the overflow bucket. *)
let bucket_index bounds v =
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  Mutex.protect lock (fun () ->
      let i = bucket_index h.bounds v in
      h.counts.(i) <- h.counts.(i) + 1;
      h.sum <- h.sum +. v;
      h.n <- h.n + 1)

let histogram_snapshot h =
  Mutex.protect lock (fun () ->
      (Array.copy h.bounds, Array.copy h.counts, h.sum, h.n))

(* Linear interpolation within the winning bucket, Prometheus-style: the
   first bucket spans [0, bound0].  Two documented edge conventions:
   an empty histogram has no quantiles, so the answer is [nan] (never a
   misleading 0); and a quantile landing in the overflow bucket clamps to
   the top bound (there is no upper edge to interpolate towards), so a
   reported p99 can never exceed the instrument's largest bound. *)
let histogram_quantile h q =
  let bounds, counts, _, n = histogram_snapshot h in
  if n = 0 then Float.nan
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = q *. float_of_int n in
    let nb = Array.length bounds in
    let rec go i seen =
      if i >= nb then bounds.(nb - 1)
      else
        let seen' = seen +. float_of_int counts.(i) in
        if seen' >= rank && counts.(i) > 0 then begin
          let lo = if i = 0 then 0. else bounds.(i - 1) in
          let hi = bounds.(i) in
          lo +. ((hi -. lo) *. ((rank -. seen) /. float_of_int counts.(i)))
        end
        else go (i + 1) seen'
    in
    go 0 0.
  end

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.iter
        (fun _ i ->
          match i with
          | Counter c -> c.c <- 0L
          | Gauge g ->
              g.g <- 0.;
              g.g_max <- 0.
          | Histogram h ->
              Array.fill h.counts 0 (Array.length h.counts) 0;
              h.sum <- 0.;
              h.n <- 0)
        table)

let sorted_entries () =
  Mutex.protect lock (fun () ->
      List.sort
        (fun (a, _) (b, _) -> compare a b)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []))

let names () = List.map fst (sorted_entries ())

let to_json () =
  let entries = sorted_entries () in
  let pick f = List.filter_map f entries in
  let counters = pick (function n, Counter c -> Some (n, c) | _ -> None) in
  let gauges = pick (function n, Gauge g -> Some (n, g) | _ -> None) in
  let histos = pick (function n, Histogram h -> Some (n, h) | _ -> None) in
  let b = Buffer.create 1024 in
  let obj name render items =
    Buffer.add_string b (Printf.sprintf ",\"%s\":{" name);
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\n  \"%s\":" (Json.escape k));
        render v)
      items;
    Buffer.add_string b (if items = [] then "}" else "\n }")
  in
  Buffer.add_string b "{\"schema\":\"vmbp-metrics/1\"";
  Mutex.protect lock (fun () ->
      obj "counters"
        (fun c -> Buffer.add_string b (Int64.to_string c.c))
        counters;
      obj "gauges"
        (fun g ->
          Buffer.add_string b
            (Printf.sprintf "{\"value\":%s,\"max\":%s}" (Json.float g.g)
               (Json.float g.g_max)))
        gauges;
      obj "histograms"
        (fun h ->
          Buffer.add_string b "{\"le\":[";
          Array.iteri
            (fun i bound ->
              if i > 0 then Buffer.add_char b ',';
              Buffer.add_string b (Json.float bound))
            h.bounds;
          Buffer.add_string b "],\"counts\":[";
          Array.iteri
            (fun i n ->
              if i > 0 then Buffer.add_char b ',';
              Buffer.add_string b (string_of_int n))
            h.counts;
          Buffer.add_string b
            (Printf.sprintf "],\"sum\":%s,\"count\":%d}" (Json.float h.sum)
               h.n))
        histos);
  Buffer.add_string b "}\n";
  Buffer.contents b

let write ~file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json ()))

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition *)

(* Registry names may carry labels in a ["base{k=v,k2=v2}"] suffix (the
   service registers e.g. "service.verb_seconds{verb=query}"); the
   exposition splits that back into a metric family plus labels so all
   verbs share one family.  Because [sorted_entries] sorts raw names,
   every series of a family is consecutive, which is what the exposition
   format requires. *)
let prom_split name =
  match String.index_opt name '{' with
  | Some i when String.length name > 1 && name.[String.length name - 1] = '}'
    ->
      let base = String.sub name 0 i in
      let body = String.sub name (i + 1) (String.length name - i - 2) in
      let labels =
        String.split_on_char ',' body
        |> List.filter (fun s -> s <> "")
        |> List.map (fun kv ->
               match String.index_opt kv '=' with
               | Some j ->
                   ( String.sub kv 0 j,
                     String.sub kv (j + 1) (String.length kv - j - 1) )
               | None -> (kv, ""))
      in
      (base, labels)
  | _ -> (name, [])

let prom_mangle base =
  let b = Buffer.create (String.length base + 8) in
  Buffer.add_string b "vmbp_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    base;
  Buffer.contents b

let prom_escape v =
  let b = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let prom_labels labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v))
             labels)
      ^ "}"

let prom_float f =
  if Float.is_nan f then "NaN"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_prometheus () =
  let entries = sorted_entries () in
  let b = Buffer.create 4096 in
  let typed : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let header family kind =
    if not (Hashtbl.mem typed family) then begin
      Hashtbl.add typed family ();
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" family kind)
    end
  in
  Mutex.protect lock (fun () ->
      List.iter
        (fun (name, inst) ->
          let base, labels = prom_split name in
          match inst with
          | Counter c ->
              let family = prom_mangle base ^ "_total" in
              header family "counter";
              Buffer.add_string b
                (Printf.sprintf "%s%s %s\n" family (prom_labels labels)
                   (Int64.to_string c.c))
          | Gauge g ->
              let family = prom_mangle base in
              header family "gauge";
              Buffer.add_string b
                (Printf.sprintf "%s%s %s\n" family (prom_labels labels)
                   (prom_float g.g))
          | Histogram h ->
              let family = prom_mangle base in
              header family "histogram";
              let cum = ref 0 in
              Array.iteri
                (fun i bound ->
                  cum := !cum + h.counts.(i);
                  Buffer.add_string b
                    (Printf.sprintf "%s_bucket%s %d\n" family
                       (prom_labels (labels @ [ ("le", prom_float bound) ]))
                       !cum))
                h.bounds;
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%s %d\n" family
                   (prom_labels (labels @ [ ("le", "+Inf") ]))
                   h.n);
              Buffer.add_string b
                (Printf.sprintf "%s_sum%s %s\n" family (prom_labels labels)
                   (prom_float h.sum));
              Buffer.add_string b
                (Printf.sprintf "%s_count%s %d\n" family (prom_labels labels)
                   h.n))
        entries;
      (* Gauge high-water marks as their own families, after the primary
         series so each family's samples stay consecutive. *)
      List.iter
        (fun (name, inst) ->
          match inst with
          | Gauge g ->
              let base, labels = prom_split name in
              let family = prom_mangle base ^ "_max" in
              header family "gauge";
              Buffer.add_string b
                (Printf.sprintf "%s%s %s\n" family (prom_labels labels)
                   (prom_float g.g_max))
          | _ -> ())
        entries);
  Buffer.contents b

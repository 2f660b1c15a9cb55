module P = Protocol
module Sjson = Vmbp_store.Sjson

(* ------------------------------------------------------------------ *)
(* Prometheus text-exposition parsing.  The monitor consumes the same
   bytes a scraper would, so what [top] shows is exactly what the
   [metrics] verb exports -- no private side channel. *)

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : float;
}

(* The label pairs of a [k=<quoted>,...] block; values use the
   Prometheus escapes (backslash, quote, newline). *)
let parse_labels s =
  let n = String.length s in
  let out = ref [] in
  let i = ref 0 in
  (try
     while !i < n do
       let eq = String.index_from s !i '=' in
       let key = String.trim (String.sub s !i (eq - !i)) in
       if eq + 1 >= n || s.[eq + 1] <> '"' then raise Exit;
       let b = Buffer.create 16 in
       let j = ref (eq + 2) in
       let closed = ref false in
       while not !closed do
         if !j >= n then raise Exit;
         (match s.[!j] with
         | '\\' when !j + 1 < n ->
             incr j;
             Buffer.add_char b
               (match s.[!j] with 'n' -> '\n' | c -> c)
         | '"' -> closed := true
         | c -> Buffer.add_char b c);
         incr j
       done;
       out := (key, Buffer.contents b) :: !out;
       i := !j;
       if !i < n && s.[!i] = ',' then incr i
     done
   with Exit | Not_found -> ());
  List.rev !out

let parse_line line =
  let line = String.trim line in
  let n = String.length line in
  if n = 0 || line.[0] = '#' then None
  else
    (* NAME{labels} VALUE | NAME VALUE *)
    let name_end =
      let rec go i =
        if i >= n then i
        else match line.[i] with '{' | ' ' | '\t' -> i | _ -> go (i + 1)
      in
      go 0
    in
    if name_end = 0 || name_end >= n then None
    else
      let name = String.sub line 0 name_end in
      let labels, rest =
        if line.[name_end] = '{' then
          match String.index_from_opt line name_end '}' with
          | None -> ([], "")
          | Some close ->
              ( parse_labels (String.sub line (name_end + 1) (close - name_end - 1)),
                String.sub line (close + 1) (n - close - 1) )
        else ([], String.sub line name_end (n - name_end))
      in
      match float_of_string_opt (String.trim rest) with
      | Some v -> Some { s_name = name; s_labels = labels; s_value = v }
      | None -> None

let parse text = List.filter_map parse_line (String.split_on_char '\n' text)

(* ------------------------------------------------------------------ *)
(* Snapshot arithmetic *)

let value ?(labels = []) samples name =
  List.find_map
    (fun s ->
      if
        s.s_name = name
        && List.for_all
             (fun (k, v) -> List.assoc_opt k s.s_labels = Some v)
             labels
      then Some s.s_value
      else None)
    samples
  |> Option.value ~default:0.

(* Cumulative histogram buckets of one labelled series, as
   (upper_bound, cumulative_count) sorted by bound; le="+Inf" last. *)
let buckets samples family ~label_key ~label_value =
  let le s = List.assoc_opt "le" s.s_labels in
  List.filter_map
    (fun s ->
      if
        s.s_name = family ^ "_bucket"
        && List.assoc_opt label_key s.s_labels = Some label_value
      then
        match le s with
        | Some "+Inf" -> Some (infinity, s.s_value)
        | Some b -> Option.map (fun f -> (f, s.s_value)) (float_of_string_opt b)
        | None -> None
      else None)
    samples
  |> List.sort compare

(* The q-quantile upper bound from cumulative buckets, mirroring
   {!Vmbp_obs.Registry.histogram_quantile}: nan when empty, the last
   finite bound when the quantile lands in the overflow bucket. *)
let bucket_quantile bs q =
  match List.rev bs with
  | [] -> Float.nan
  | (_, total) :: _ when total <= 0. -> Float.nan
  | (_, total) :: rest ->
      let target = q *. total in
      let finite = List.rev rest in
      let rec go last = function
        | [] -> last
        | (b, c) :: tl -> if c >= target then b else go b tl
      in
      let fallback =
        match List.rev finite with (b, _) :: _ -> b | [] -> Float.nan
      in
      let r = go fallback finite in
      if Float.is_nan r then fallback else r

(* Bucket-wise delta of two cumulative snapshots (the activity within
   one polling interval); mismatched shapes fall back to [cur]. *)
let bucket_delta ~prev cur =
  if List.length prev <> List.length cur then cur
  else
    try
      List.map2
        (fun (b0, c0) (b1, c1) ->
          if b0 <> b1 || c1 < c0 then raise Exit else (b1, c1 -. c0))
        prev cur
    with Exit -> cur

let verbs samples =
  List.filter_map
    (fun s ->
      if s.s_name = "vmbp_service_verb_seconds_count" then
        List.assoc_opt "verb" s.s_labels
      else None)
    samples
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Rendering *)

let fmt_lat v =
  if Float.is_nan v then "    -"
  else if v < 1e-3 then Printf.sprintf "%4.0fus" (v *. 1e6)
  else if v < 1. then Printf.sprintf "%4.1fms" (v *. 1e3)
  else Printf.sprintf "%5.2fs" v

let fmt_rate v = if v < 10. then Printf.sprintf "%.1f" v else Printf.sprintf "%.0f" v

let render ?prev ~dt samples =
  let b = Buffer.create 1024 in
  let c name = value samples ("vmbp_service_" ^ name ^ "_total") in
  let g name = value samples ("vmbp_service_" ^ name) in
  let pc name = match prev with
    | Some p -> value p ("vmbp_service_" ^ name ^ "_total")
    | None -> 0.
  in
  let rate name = if dt > 0. then (c name -. pc name) /. dt else 0. in
  let requests = c "requests" in
  let hits = c "store_hits" in
  let hit_rate = if requests > 0. then 100. *. hits /. requests else 0. in
  Buffer.add_string b
    (Printf.sprintf
       "requests %-8.0f %s rps   store-hit %5.1f%%   conns %.0f  queue %.0f  \
        inflight %.0f\n"
       requests (fmt_rate (rate "requests")) hit_rate
       (g "connections") (g "queue_depth") (g "inflight"));
  Buffer.add_string b
    (Printf.sprintf
       "coalesced %.0f  shed %.0f  timeouts %.0f  conn-drops %.0f  \
        flight-dumps %.0f\n"
       (c "coalesced") (c "shed") (c "request_timeouts") (c "conn_drops")
       (c "flight_dumps"));
  Buffer.add_string b
    (Printf.sprintf "%-10s %8s %8s %8s %8s %8s\n" "verb" "n" "rps" "p50"
       "p95" "p99");
  List.iter
    (fun verb ->
      let cur =
        buckets samples "vmbp_service_verb_seconds" ~label_key:"verb"
          ~label_value:verb
      in
      let n =
        value ~labels:[ ("verb", verb) ] samples
          "vmbp_service_verb_seconds_count"
      in
      let prev_n, window =
        match prev with
        | Some p ->
            ( value ~labels:[ ("verb", verb) ] p
                "vmbp_service_verb_seconds_count",
              bucket_delta
                ~prev:
                  (buckets p "vmbp_service_verb_seconds" ~label_key:"verb"
                     ~label_value:verb)
                cur )
        | None -> (0., cur)
      in
      (* Quantiles come from the interval's own bucket deltas when the
         interval saw traffic; an idle interval falls back to the
         all-time distribution rather than showing dashes. *)
      let window =
        if List.exists (fun (_, c) -> c > 0.) window then window else cur
      in
      let rps = if dt > 0. then (n -. prev_n) /. dt else 0. in
      Buffer.add_string b
        (Printf.sprintf "%-10s %8.0f %8s %8s %8s %8s\n" verb n
           (fmt_rate rps)
           (fmt_lat (bucket_quantile window 0.5))
           (fmt_lat (bucket_quantile window 0.95))
           (fmt_lat (bucket_quantile window 0.99))))
    (verbs samples);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The polling loop *)

let fetch socket =
  let fd = P.connect socket in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      P.write_frame fd
        (P.obj [ ("verb", P.S "metrics"); ("format", P.S "prometheus") ]);
      match P.read_frame fd with
      | None -> Error "server closed the connection without a reply"
      | Some reply -> (
          match Sjson.parse_line reply with
          | exception Sjson.Bad -> Error "unparseable metrics reply"
          | fields -> (
              match
                (Sjson.str_opt fields "status", Sjson.str_opt fields "body")
              with
              | Some "ok", Some body -> Ok body
              | st, _ ->
                  Error
                    (Printf.sprintf "metrics verb replied %s"
                       (Option.value ~default:"(no status)" st)))))

let run ~socket ~interval ?iterations () =
  let clear = "\027[H\027[2J" in
  let prev = ref None in
  let t_prev = ref (Vmbp_sim.Env.now ()) in
  let i = ref 0 in
  let stop = ref None in
  while !stop = None do
    (match fetch socket with
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "vmbp top: cannot reach %s: %s\n" socket
          (Unix.error_message e);
        stop := Some 1
    | Error msg ->
        Printf.eprintf "vmbp top: %s\n" msg;
        stop := Some 1
    | Ok body ->
        let now = Vmbp_sim.Env.now () in
        let samples = parse body in
        let dt = now -. !t_prev in
        let header =
          Printf.sprintf "vmbp top -- %s -- every %gs\n" socket interval
        in
        print_string
          (clear ^ header
          ^ render ?prev:!prev ~dt:(if !prev = None then 0. else dt) samples);
        flush stdout;
        prev := Some samples;
        t_prev := now);
    incr i;
    (match iterations with
    | Some n when !i >= n && !stop = None -> stop := Some 0
    | _ -> ());
    if !stop = None then Unix.sleepf interval
  done;
  Option.value ~default:0 !stop

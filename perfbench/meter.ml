(* Measurement primitives shared by every workload: process CPU time,
   /proc readings of another process, order statistics, span self time
   and the one-line JSON result each run prints. *)

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds spent in [f ()], with its result. *)
let timed f =
  let t0 = cpu () in
  let v = f () in
  (v, cpu () -. t0)

(* The whole file, read to EOF: /proc files report length 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_all ic)

(* Linux reports utime/stime in /proc/<pid>/stat in USER_HZ ticks, which
   the kernel ABI fixes at 100 per second. *)
let user_hz = 100.

(* user+sys CPU seconds of process [pid], from /proc/<pid>/stat.  The
   command field may contain spaces, so fields are counted from the last
   closing parenthesis. *)
let proc_cpu pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex s ')' + 2 in
  let rest = String.sub s after (String.length s - after) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* After the command: state is field 3, utime 14 and stime 15. *)
  (float_of_string f.(11) +. float_of_string f.(12)) /. user_hz

(* Peak resident set size in MB (VmHWM) of [pid], or of this process. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | Some p -> Printf.sprintf "/proc/%d/status" p
    | None -> "/proc/self/status"
  in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file path))
  in
  let kb = Scanf.sscanf line "VmHWM: %d kB" Fun.id in
  float_of_int kb /. 1024.

(* Quantile by linear interpolation between closest ranks. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* Self time per span: its duration minus the durations of the spans
   whose recorded parent it is. *)
let self_times (events : Vmbp_obs.Span.event list) =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun (e : Vmbp_obs.Span.event) ->
      if e.parent >= 0 then
        Hashtbl.replace child e.parent
          (e.dur +. Option.value ~default:0. (Hashtbl.find_opt child e.parent)))
    events;
  List.map
    (fun (e : Vmbp_obs.Span.event) ->
      (e, e.dur -. Option.value ~default:0. (Hashtbl.find_opt child e.id)))
    events

(* Summed self seconds of every span called [name]. *)
let self_sum selfs name =
  List.fold_left
    (fun acc ((e : Vmbp_obs.Span.event), s) ->
      if e.name = name then acc +. s else acc)
    0. selfs

(* ------------------------------------------------------------------ *)
(* Result of one process: operations attempted and failed, the first few
   failure messages, named metrics with units, and free-form facts. *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** newest first, capped *)
  mutable metrics : (string * float * string) list;  (** newest first *)
  mutable info : (string * string) list;
}

let result () = { attempted = 0; failed = 0; errors = []; metrics = []; info = [] }

let attempt r ok msg =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if List.length r.errors < 20 then r.errors <- msg () :: r.errors
  end

let metric r name unit value = r.metrics <- (name, value, unit) :: r.metrics
let info r k v = r.info <- (k, v) :: r.info

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_string s = "\"" ^ Vmbp_store.Sjson.escape s ^ "\""

let to_json r =
  let fields l = String.concat "," l in
  Printf.sprintf
    "{\"attempted\":%d,\"failed\":%d,\"errors\":[%s],\"metrics\":{%s},\"info\":{%s}}"
    r.attempted r.failed
    (fields (List.rev_map json_string r.errors))
    (fields
       (List.rev_map
          (fun (n, v, u) ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string n)
              (json_float v) (json_string u))
          r.metrics))
    (fields
       (List.rev_map
          (fun (k, v) -> Printf.sprintf "%s:%s" (json_string k) (json_string v))
          r.info))

let print r =
  print_string (to_json r);
  print_newline ()

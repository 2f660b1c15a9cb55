(* Deterministic fault injection: named points armed from a [--chaos SPEC]
   string, counted and fired under one lock so concurrent workers see a
   consistent opportunity ordering on count-based specs.  Probabilistic
   specs draw from one seeded splitmix64 stream, so a chaos run
   reproduces exactly given the same spec and arrival order. *)

type point =
  | Record_fail
  | Worker_death
  | Conn_drop
  | Store_io
  | Slow_client
  | Pool_wedge

let point_name = function
  | Record_fail -> "record-fail"
  | Worker_death -> "worker-death"
  | Conn_drop -> "conn-drop"
  | Store_io -> "store-io"
  | Slow_client -> "slow-client"
  | Pool_wedge -> "pool-wedge"

let all_points =
  [
    Record_fail;
    Worker_death;
    Conn_drop;
    Store_io;
    Slow_client;
    Pool_wedge;
  ]

let point_index = function
  | Record_fail -> 0
  | Worker_death -> 1
  | Conn_drop -> 2
  | Store_io -> 3
  | Slow_client -> 4
  | Pool_wedge -> 5

(* Points that stall rather than fail carry a per-fire duration,
   overridable with [POINT=...@DUR]. *)
let default_duration = function
  | Slow_client -> 0.2
  | Pool_wedge -> 0.5
  | _ -> 0.

let timed_point p = default_duration p > 0.

exception Injected of string
exception Worker_killed

(* [Count] fires the opportunities numbered [skip .. skip+times-1] (both
   counters burn down as opportunities arrive); [Prob] fires each
   opportunity independently from the seeded stream. *)
type arming = Count of { mutable skip : int; mutable times : int } | Prob of float

type slot = {
  mutable arming : arming option;
  mutable fires : int;
  mutable duration : float;  (* timed points only: seconds stalled per fire *)
}

let slots =
  Array.of_list
    (List.map
       (fun p -> { arming = None; fires = 0; duration = default_duration p })
       all_points)

let lock = Mutex.create ()

(* The chaos stream, guarded by [lock]. *)
let default_seed = 0x5DEECE66DL
let prng = ref (Splitmix.make default_seed)

let reset_locked () =
  List.iter
    (fun p ->
      let s = slots.(point_index p) in
      s.arming <- None;
      s.fires <- 0;
      s.duration <- default_duration p)
    all_points;
  prng := Splitmix.make default_seed

let reset () = Mutex.protect lock reset_locked

let armed () =
  Mutex.protect lock (fun () -> Array.exists (fun s -> s.arming <> None) slots)

let fire p =
  let s = slots.(point_index p) in
  Mutex.lock lock;
  let hit =
    match s.arming with
    | None -> false
    | Some (Count c) ->
        if c.skip > 0 then begin
          c.skip <- c.skip - 1;
          false
        end
        else if c.times > 0 then begin
          c.times <- c.times - 1;
          true
        end
        else false
    | Some (Prob p) -> Splitmix.float !prng < p
  in
  if hit then s.fires <- s.fires + 1;
  Mutex.unlock lock;
  hit

let fired p =
  let s = slots.(point_index p) in
  Mutex.protect lock (fun () -> s.fires)

let total_injected () =
  Mutex.protect lock (fun () ->
      Array.fold_left (fun a s -> a + s.fires) 0 slots)

let record_fail () =
  if fire Record_fail then raise (Injected "chaos: injected record failure")

let worker_death () = if fire Worker_death then raise Worker_killed

let duration p =
  let s = slots.(point_index p) in
  Mutex.protect lock (fun () -> s.duration)

let conn_drop () = fire Conn_drop
let store_io () = fire Store_io
let slow_client () = if fire Slow_client then Some (duration Slow_client) else None
let pool_wedge () = if fire Pool_wedge then Some (duration Pool_wedge) else None

(* ------------------------------------------------------------------ *)
(* Spec parsing *)

let point_of_name n = List.find_opt (fun p -> point_name p = n) all_points

let parse_arming v =
  (* N | S+N | P (float < 1) *)
  match String.index_opt v '+' with
  | Some i ->
      let skip = String.sub v 0 i
      and times = String.sub v (i + 1) (String.length v - i - 1) in
      (match (int_of_string_opt skip, int_of_string_opt times) with
      | Some s, Some n when s >= 0 && n > 0 -> Ok (Count { skip = s; times = n })
      | _ -> Error (Printf.sprintf "bad skip+count %S" v))
  | None -> (
      match int_of_string_opt v with
      | Some n when n > 0 -> Ok (Count { skip = 0; times = n })
      | Some _ -> Error (Printf.sprintf "count must be positive in %S" v)
      | None -> (
          match float_of_string_opt v with
          | Some p when p > 0. && p < 1. -> Ok (Prob p)
          | _ -> Error (Printf.sprintf "bad count or probability %S" v)))

let parse_pair pair =
  match String.index_opt pair '=' with
  | None -> Error (Printf.sprintf "expected name=value, got %S" pair)
  | Some i ->
      let name = String.sub pair 0 i
      and value = String.sub pair (i + 1) (String.length pair - i - 1) in
      if name = "seed" then
        match Int64.of_string_opt value with
        | Some s ->
            prng := Splitmix.make s;
            Ok ()
        | None -> Error (Printf.sprintf "bad seed %S" value)
      else
        match point_of_name name with
        | None -> Error (Printf.sprintf "unknown injection point %S" name)
        | Some p -> (
            let value, duration =
              match String.index_opt value '@' with
              | Some j when timed_point p ->
                  ( String.sub value 0 j,
                    float_of_string_opt
                      (String.sub value (j + 1) (String.length value - j - 1))
                  )
              | _ -> (value, Some slots.(point_index p).duration)
            in
            match (parse_arming value, duration) with
            | Ok arming, Some d when d >= 0. ->
                let s = slots.(point_index p) in
                s.arming <- Some arming;
                s.duration <- d;
                Ok ()
            | Ok _, _ -> Error (Printf.sprintf "bad duration in %S" pair)
            | (Error _ as e), _ -> e)

let configure spec =
  Mutex.lock lock;
  reset_locked ();
  let rec go = function
    | [] -> Ok ()
    | pair :: rest -> ( match parse_pair pair with Ok () -> go rest | e -> e)
  in
  let r =
    go
      (String.split_on_char ',' spec
      |> List.map String.trim
      |> List.filter (fun s -> s <> ""))
  in
  (match r with Error _ -> reset_locked () | Ok () -> ());
  Mutex.unlock lock;
  r

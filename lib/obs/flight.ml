type entry = { seq : int; ts : float; dom : int; kind : string; detail : string }

let capacity = 512

(* One atomic slot per ring position.  [note] claims a globally unique
   sequence number with fetch-and-add, then publishes the entry into
   [seq mod capacity] with a plain atomic store: no locks, no blocking,
   safe from any domain and from signal-adjacent paths.  A torn view is
   impossible (the slot swaps whole immutable records); at worst a reader
   racing a writer sees the slot's previous occupant, which is exactly
   the "last N transitions, best effort" contract a flight recorder
   wants. *)
let slots : entry option Atomic.t array =
  Array.init capacity (fun _ -> Atomic.make None)

let seq = Atomic.make 0

let reset () =
  Atomic.set seq 0;
  Array.iter (fun s -> Atomic.set s None) slots

let note ~kind detail =
  let s = Atomic.fetch_and_add seq 1 in
  let e =
    {
      seq = s;
      ts = Vmbp_sim.Env.now ();
      dom = (Domain.self () :> int);
      kind;
      detail;
    }
  in
  Atomic.set slots.(s mod capacity) (Some e)

let recorded () = Atomic.get seq

let entries () =
  Array.to_list slots
  |> List.filter_map Atomic.get
  |> List.sort (fun a b -> compare a.seq b.seq)

let to_json ?(reason = "") () =
  let es = entries () in
  let total = recorded () in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"vmbp-flight/1\"";
  if reason <> "" then
    Buffer.add_string b (Printf.sprintf ",\"reason\":\"%s\"" (Json.escape reason));
  Buffer.add_string b
    (Printf.sprintf ",\"capacity\":%d,\"recorded\":%d,\"dropped\":%d" capacity
       total
       (max 0 (total - capacity)));
  Buffer.add_string b ",\"entries\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n  {\"seq\":%d,\"ts\":%.6f,\"dom\":%d,\"kind\":\"%s\",\"detail\":\"%s\"}"
           e.seq e.ts e.dom (Json.escape e.kind) (Json.escape e.detail)))
    es;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

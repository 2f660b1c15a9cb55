type event = {
  name : string;
  ts : float;
  dur : float;
  tid : int;
  id : int;
  parent : int;
  trace : string;
  args : (string * string) list;
}

(* The enabled flag is the only state touched on the disabled fast path;
   everything else sits behind the mutex.  [collected] is newest-first so
   recording is a cons, not an append. *)
let enabled = Atomic.make false
let lock = Mutex.create ()
let origin = ref 0.
let collected : event list ref = ref []

(* Every timestamp is the environment's monotonic clock: the kernel's in
   a real process, virtual time under the simulator, which installs its
   environment before [enable] so the origin and the spans share it. *)
let now = Vmbp_sim.Env.now

(* Span ids are allocated at span start from a counter that resets on
   [enable]: single-threaded (simulated) runs therefore produce the same
   ids for the same schedule, which is what makes trace files
   byte-comparable across replays of a seed. *)
let next_id = Atomic.make 0
let alloc_id () = Atomic.fetch_and_add next_id 1

(* Per-domain stack of open span ids: [with_] pushes on entry so nested
   spans record their lexical parent without the caller threading ids. *)
let open_spans : int list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let current () =
  match !(Domain.DLS.get open_spans) with p :: _ -> p | [] -> -1

let enable () =
  Mutex.lock lock;
  origin := now ();
  collected := [];
  Mutex.unlock lock;
  Atomic.set next_id 0;
  Atomic.set enabled true

let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

let record ~name ~args ~id ~parent ~trace t0 t1 =
  let e =
    {
      name;
      ts = t0 -. !origin;
      dur = t1 -. t0;
      tid = (Domain.self () :> int);
      id;
      parent;
      trace;
      args;
    }
  in
  Mutex.protect lock (fun () -> collected := e :: !collected)

let with_ ?(args = []) ?(trace = "") ~name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let t0 = now () in
    let id = alloc_id () in
    let stack = Domain.DLS.get open_spans in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        (match !stack with _ :: tl -> stack := tl | [] -> ());
        record ~name ~args ~id ~parent ~trace t0 (now ()))
      f
  end

let interval ?(args = []) ?(trace = "") ?parent ~name t0 t1 =
  if Atomic.get enabled then begin
    let id = alloc_id () in
    let parent = match parent with Some p -> p | None -> current () in
    record ~name ~args ~id ~parent ~trace t0 t1
  end

let events () = List.rev (Mutex.protect lock (fun () -> !collected))
let count () = Mutex.protect lock (fun () -> List.length !collected)

let to_json () =
  let evs = events () in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n  ";
      (* Complete ("X") events; ts and dur are microseconds in this
         format, which is what keeps Perfetto's zoom sensible.  The span
         id, parent id, and trace (request) id travel as string-valued
         args, so any trace-event viewer shows the linkage without a
         custom schema. *)
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"vmbp\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d"
           (Json.escape e.name) (e.ts *. 1e6) (e.dur *. 1e6) e.tid);
      Buffer.add_string b ",\"args\":{";
      Buffer.add_string b (Printf.sprintf "\"span\":\"%d\"" e.id);
      if e.parent >= 0 then
        Buffer.add_string b (Printf.sprintf ",\"parent\":\"%d\"" e.parent);
      if e.trace <> "" then
        Buffer.add_string b
          (Printf.sprintf ",\"trace\":\"%s\"" (Json.escape e.trace));
      List.iter
        (fun (k, v) ->
          Buffer.add_string b
            (Printf.sprintf ",\"%s\":\"%s\"" (Json.escape k) (Json.escape v)))
        e.args;
      Buffer.add_string b "}}")
    evs;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

let write ~file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json ()))

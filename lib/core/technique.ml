type parse_algo = Greedy | Optimal
type replica_strategy = Round_robin | Random of int

type static_params = {
  replicas : int;
  superinstrs : int;
  parse : parse_algo;
  strategy : replica_strategy;
  prefer_short : bool;
}

let static_params ?(replicas = 0) ?(superinstrs = 0) ?(parse = Greedy)
    ?(strategy = Round_robin) ?(prefer_short = false) () =
  if replicas < 0 || superinstrs < 0 then
    invalid_arg "Technique.static_params: negative counts";
  { replicas; superinstrs; parse; strategy; prefer_short }

type t =
  | Switch
  | Plain
  | Static of static_params
  | Dynamic_repl
  | Dynamic_super
  | Dynamic_both
  | Across_bb
  | With_static_super of static_params
  | With_static_across_bb of static_params
  | Subroutine

let switch = Switch
let plain = Plain
let static_repl ?(n = 400) () = Static (static_params ~replicas:n ())
let static_super ?(n = 400) () = Static (static_params ~superinstrs:n ())

let static_both ?(supers = 35) ?(replicas = 365) () =
  Static (static_params ~replicas ~superinstrs:supers ())

let dynamic_repl = Dynamic_repl
let dynamic_super = Dynamic_super
let dynamic_both = Dynamic_both
let across_bb = Across_bb

let with_static_super ?(n = 400) () =
  With_static_super (static_params ~superinstrs:n ())

let with_static_across_bb ?(n = 400) () =
  With_static_across_bb (static_params ~superinstrs:n ~prefer_short:true ())

let subroutine = Subroutine

let paper_gforth_variants =
  [
    plain;
    static_repl ();
    static_super ();
    static_both ();
    dynamic_repl;
    dynamic_super;
    dynamic_both;
    across_bb;
    with_static_super ();
  ]

let paper_jvm_variants =
  [
    plain;
    static_repl ();
    static_super ();
    dynamic_repl;
    dynamic_super;
    dynamic_both;
    across_bb;
    with_static_super ();
    with_static_across_bb ();
  ]

let name = function
  | Switch -> "switch"
  | Plain -> "plain"
  | Static { replicas; superinstrs; _ } ->
      if superinstrs = 0 then "static repl"
      else if replicas = 0 then "static super"
      else "static both"
  | Dynamic_repl -> "dynamic repl"
  | Dynamic_super -> "dynamic super"
  | Dynamic_both -> "dynamic both"
  | Across_bb -> "across bb"
  | With_static_super _ -> "with static super"
  | With_static_across_bb _ -> "w/static super across"
  | Subroutine -> "subroutine threading"

(* Unlike [name], which deliberately collapses to the paper's labels
   ("static repl" regardless of the count), the descriptor spells out every
   parameter, so two techniques compare equal exactly when their
   descriptors do.  The store keys cells by it: a report rerun with
   different replica counts must never be served stale records under a
   collapsed label. *)
let descriptor t =
  let sp { replicas; superinstrs; parse; strategy; prefer_short } =
    Printf.sprintf "r%d.s%d.%s.%s%s" replicas superinstrs
      (match parse with Greedy -> "greedy" | Optimal -> "optimal")
      (match strategy with
      | Round_robin -> "rr"
      | Random seed -> Printf.sprintf "rand%d" seed)
      (if prefer_short then ".short" else "")
  in
  match t with
  | Switch -> "switch"
  | Plain -> "plain"
  | Static p -> "static[" ^ sp p ^ "]"
  | Dynamic_repl -> "dynamic-repl"
  | Dynamic_super -> "dynamic-super"
  | Dynamic_both -> "dynamic-both"
  | Across_bb -> "across-bb"
  | With_static_super p -> "with-static-super[" ^ sp p ^ "]"
  | With_static_across_bb p -> "with-static-across-bb[" ^ sp p ^ "]"
  | Subroutine -> "subroutine"

let of_name s =
  let normalized = String.map (function '-' | '_' -> ' ' | c -> c) s in
  match normalized with
  | "switch" -> Some Switch
  | "plain" -> Some Plain
  | "static repl" -> Some (static_repl ())
  | "static super" -> Some (static_super ())
  | "static both" -> Some (static_both ())
  | "dynamic repl" -> Some Dynamic_repl
  | "dynamic super" -> Some Dynamic_super
  | "dynamic both" -> Some Dynamic_both
  | "across bb" -> Some Across_bb
  | "with static super" -> Some (with_static_super ())
  | "w/static super across" | "with static super across" ->
      Some (with_static_across_bb ())
  | "subroutine threading" | "subroutine" -> Some Subroutine
  | _ -> None

let uses_static_selection = function
  | Static { replicas; superinstrs; _ } -> replicas > 0 || superinstrs > 0
  | With_static_super _ | With_static_across_bb _ -> true
  | Switch | Plain | Dynamic_repl | Dynamic_super | Dynamic_both | Across_bb
  | Subroutine ->
      false

let is_dynamic = function
  | Dynamic_repl | Dynamic_super | Dynamic_both | Across_bb
  | With_static_super _ | With_static_across_bb _ | Subroutine ->
      true
  | Switch | Plain | Static _ -> false

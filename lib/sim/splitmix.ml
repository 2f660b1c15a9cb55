(* OCaml's native int is 63-bit, so the stream runs on Int64. *)
type t = { mutable state : int64 }

let make seed = { state = seed }

let next t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.

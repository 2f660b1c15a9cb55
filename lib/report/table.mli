(** Plain-text table rendering for the reproduction reports. *)

val render : headers:string list -> rows:string list list -> string
(** Column-aligned table with a rule under the header. *)

val f2 : float -> string
(** Two-decimal rendering. *)

val human_int : int -> string
(** 12345678 -> "12.3M"-style rendering for counter values. *)

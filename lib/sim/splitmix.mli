(** splitmix64 (Steele, Lea and Flood, OOPSLA 2014): the one seeded
    stream behind every reproducible draw -- the simulated world's
    delays and crash points, [--chaos] probabilities and the load
    generator's picks.  Not thread-safe: a stream shared
    between domains needs its owner's lock. *)

type t

val make : int64 -> t
(** A stream starting from this seed. *)

val next : t -> int64
(** The next 64 bits. *)

val float : t -> float
(** The next draw's top 53 bits, uniform in [\[0, 1)]. *)

(** CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).

    Every record in the content-addressed store carries this checksum,
    so corruption anywhere in its file -- not just a line cut short by a
    crash -- is detected on load.  CRC-32 detects all
    burst errors up to 32 bits, which covers the single-sector and
    byte-flip corruption modes the fuzz tests inject. *)

val digest : string -> int
(** The CRC of the whole string, in [0, 0xFFFFFFFF]. *)

val digest_sub : string -> pos:int -> len:int -> int
(** The CRC of a substring.  @raise Invalid_argument on a bad range. *)

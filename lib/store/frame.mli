(** Self-verifying line framing for append-only record files.

    A framed line is ["vf1 CCCCCCCC LLL payload\n"]: a fixed magic, the
    CRC-32 of the payload in 8 lower-case hex digits, the payload length
    in decimal, then the payload itself (which must not contain raw
    newlines -- the cell codec escapes them).  The header makes every
    record independently checkable, so a loader can skip-and-count a
    corrupt record {e anywhere} in the file -- flipped bytes, a spliced
    write, a tail torn by [kill -9] -- and keep every healthy record
    around it.  A length mismatch, a CRC mismatch, a malformed header
    and a line without the magic all classify as {!Corrupt}. *)

type decoded =
  | Framed of string  (** header verified; the payload is intact *)
  | Corrupt

val encode : string -> string
(** The framed line for [payload], including the trailing newline.
    @raise Invalid_argument if [payload] contains a newline. *)

val decode : string -> decoded
(** Classify one line (without its trailing newline). *)

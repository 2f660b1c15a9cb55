(** The one JSON string escaper and the one JSON float formatter, shared
    by every JSON writer: span and flight dumps, the metrics registry,
    the cells document, the store's records, the service protocol and
    loadgen's summary. *)

val escape : string -> string
(** JSON string-body escaping: quote, backslash, [\n], [\r] and [\t] by
    their short escapes, every other ASCII control character as
    [\u00XX]. *)

val float : float -> string
(** A float as a JSON number: NaN as [null], an integer below 1e15 in
    magnitude without a fraction, anything else with 17 significant
    digits (which reads back as the same float). *)

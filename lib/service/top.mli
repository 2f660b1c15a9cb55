(** Live terminal monitor for a running report service.

    Polls the service's [metrics] verb in Prometheus text-exposition
    format -- the exact bytes a scraper would see -- and renders a
    rolling view: request rate, store-hit ratio, queue/inflight/
    connection gauges, coalesced/shed/timeout counters, and per-verb
    p50/p95/p99 latency quantiles computed from the interval's own
    histogram-bucket deltas (falling back to the all-time distribution
    over idle intervals).

    The parser and renderer are pure and exposed for tests. *)

type sample = {
  s_name : string;  (** mangled family/sample name, e.g. [vmbp_service_requests_total] *)
  s_labels : (string * string) list;
  s_value : float;
}

val parse : string -> sample list
(** Parse a Prometheus text exposition: one {!sample} per sample line,
    [#] comment and malformed lines skipped, label values unescaped. *)

val value : ?labels:(string * string) list -> sample list -> string -> float
(** First sample matching the name whose labels include all of
    [labels]; [0.] when absent. *)

val buckets :
  sample list ->
  string ->
  label_key:string ->
  label_value:string ->
  (float * float) list
(** The cumulative histogram buckets of family [NAME_bucket] whose
    [label_key] label equals [label_value], as [(upper_bound,
    cumulative_count)] sorted by bound with [le="+Inf"] mapped to
    [infinity] last. *)

val bucket_quantile : (float * float) list -> float -> float
(** The q-quantile upper bound from cumulative [(le, count)] buckets
    (sorted, [+Inf] as [infinity] last), mirroring
    {!Vmbp_obs.Registry.histogram_quantile}: [nan] when empty, the last
    finite bound when the quantile lands in the overflow bucket. *)

val render : ?prev:sample list -> dt:float -> sample list -> string
(** One screenful for the current snapshot.  With [prev], rates and
    quantiles describe the interval between the two snapshots ([dt]
    seconds apart); without it they describe all time. *)

val run : socket:string -> interval:float -> ?iterations:int -> unit -> int
(** Poll and redraw every [interval] seconds until the server goes away
    (returns 1 with a message on stderr) or [iterations] screens have
    been drawn (returns 0).  Omitting [iterations] runs until failure
    or Ctrl-C. *)

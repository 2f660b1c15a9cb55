(** A process-global registry of named counters, gauges and fixed-bucket
    histograms.

    Instruments are created (or re-fetched) by name; updates go through
    the returned handle.  All state lives behind one mutex, so worker
    domains can update concurrently without losing increments; updates
    happen at cell granularity (never inside simulation hot loops), so the
    lock is not a throughput concern.  Counters accumulate in [int64]: two
    runs' worth of 62-bit native-instruction counts cannot silently wrap.

    {!reset} zeroes every instrument in place -- existing handles stay
    valid -- so each report run starts from a clean slate without
    invalidating the module-level handles instrumented code holds. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Find or create.  @raise Invalid_argument if the name is already
    registered as a different instrument kind. *)

val add : counter -> int -> unit
val add_int64 : counter -> int64 -> unit
val counter_value : counter -> int64
val find_counter : string -> int64 option

val count : string -> int
(** The named counter's value, 0 when no counter has that name: what a
    summary line or a JSON field prints. *)

val gauge : string -> gauge
(** A float-valued level with a high-water mark. *)

val gauge_set : gauge -> float -> unit
val gauge_add : gauge -> float -> unit
val gauge_value : gauge -> float
val gauge_max : gauge -> float

val histogram : bounds:float array -> string -> histogram
(** Fixed cumulative-style buckets: an observation [v] lands in the first
    bucket whose upper bound satisfies [v <= bound], or in the implicit
    overflow bucket past the last bound.  [bounds] must be strictly
    increasing and non-empty.  @raise Invalid_argument otherwise, or on an
    instrument-kind clash. *)

val observe : histogram -> float -> unit

val histogram_snapshot : histogram -> float array * int array * float * int
(** [(bounds, counts, sum, count)]; [counts] has one more entry than
    [bounds] (the overflow bucket last). *)

val histogram_quantile : histogram -> float -> float
(** Approximate [q]-quantile ([0..1]) from the bucket counts, with linear
    interpolation inside the winning bucket.  Two documented conventions:
    an empty histogram returns [nan] (it has no quantiles -- never a
    misleading 0), and a quantile landing in the overflow bucket clamps
    to the top bound (no upper edge to interpolate towards), so reported
    quantiles never exceed the instrument's largest bound. *)

val reset : unit -> unit
(** Zero every registered instrument in place. *)

val names : unit -> string list
(** Registered instrument names, sorted. *)

val to_json : unit -> string
(** The whole registry as one JSON document (schema ["vmbp-metrics/1"]):
    [{"schema":"vmbp-metrics/1","counters":{name:int,...},
    "gauges":{name:{"value":..,"max":..},...},
    "histograms":{name:{"le":[...],"counts":[...],"sum":..,"count":..},...}}]
    with names in sorted order, so equal registry states render
    byte-identically. *)

val write : file:string -> unit

val to_prometheus : unit -> string
(** The whole registry in the Prometheus text exposition format.  Names
    are mangled to [vmbp_<name>] with non-alphanumerics as underscores; a
    registry name of the form ["base{k=v,...}"] splits into a metric
    family plus labels, so e.g. ["service.verb_seconds{verb=query}"] and
    ["...{verb=grid}"] render as two series of one
    [vmbp_service_verb_seconds] histogram family.  Counters render as
    [<family>_total]; gauges render their value plus a [<family>_max]
    high-water family; histograms render cumulative [_bucket] series
    (ending with [le="+Inf"]) plus [_sum] and [_count]. *)

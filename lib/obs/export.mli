(** How every command hands over its observability files. *)

val finish :
  ?quiet:bool -> ?spans:string -> ?metrics:string -> (unit -> string) -> unit
(** [finish ?spans ?metrics footer] ends a command's observation.  With
    [spans] it stops span collection and writes the collected spans there
    (Chrome trace-event JSON); with [metrics] it writes the registry there
    (vmbp-metrics/1).  On stderr it prints [wrote N spans to PATH] and
    [wrote metrics to PATH] for the files written, [vmbp: could not write
    PATH: ERROR] for a file that could not be, and then, when either file
    was asked for, the caller's [footer ()] line.  [quiet] (default false)
    keeps only the failure lines.  The spans stay readable through
    {!Span.events}. *)

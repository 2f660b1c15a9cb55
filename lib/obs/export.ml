(* A write that fails costs its file and one line, never the command's
   results: every caller has printed them by now. *)
let write ~quiet what write file =
  match write ~file with
  | () -> if not quiet then Printf.eprintf "wrote %s to %s\n%!" what file
  | exception Sys_error msg ->
      let prefix = file ^ ": " in
      let msg =
        if String.starts_with ~prefix msg then
          String.sub msg (String.length prefix)
            (String.length msg - String.length prefix)
        else msg
      in
      Printf.eprintf "vmbp: could not write %s: %s\n%!" file msg

let finish ?(quiet = false) ?spans ?metrics footer =
  Option.iter
    (fun file ->
      Span.disable ();
      write ~quiet (Printf.sprintf "%d spans" (Span.count ())) Span.write file)
    spans;
  Option.iter (write ~quiet "metrics" Registry.write) metrics;
  if (spans <> None || metrics <> None) && not quiet then
    Printf.eprintf "%s\n%!" (footer ())

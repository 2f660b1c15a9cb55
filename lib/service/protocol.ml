exception Oversized of int

let be32 n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (n land 0xFF));
  Bytes.unsafe_to_string b

let len32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let encode_frame payload = be32 (String.length payload) ^ payload

let peel ~max buf =
  if String.length buf < 4 then `Await
  else begin
    let n = len32 buf 0 in
    if n > max then raise (Oversized n);
    if String.length buf < 4 + n then `Await
    else
      `Frame
        ( String.sub buf 4 n,
          String.sub buf (4 + n) (String.length buf - 4 - n) )
  end

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then go (off + Unix.write fd b off (len - off))
  in
  go 0

let write_frame fd payload = write_all fd (encode_frame payload)

let read_exactly fd n ~eof_ok =
  let b = Bytes.create n in
  let rec go off =
    if off >= n then Some (Bytes.unsafe_to_string b)
    else
      match Unix.read fd b off (n - off) with
      | 0 -> if off = 0 && eof_ok then None else raise End_of_file
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_frame ?(max = 64 * 1024 * 1024) fd =
  match read_exactly fd 4 ~eof_ok:true with
  | None -> None
  | Some hdr ->
      let n = len32 hdr 0 in
      if n > max then raise (Oversized n);
      read_exactly fd n ~eof_ok:false

(* ------------------------------------------------------------------ *)
(* Reply payloads *)

type jv = S of string | I of int | F of float | B of bool

let obj fields =
  let b = Buffer.create 128 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":" (Vmbp_store.Sjson.escape k));
      Buffer.add_string b
        (match v with
        | S s -> Printf.sprintf "\"%s\"" (Vmbp_store.Sjson.escape s)
        | I n -> string_of_int n
        | F f -> Vmbp_obs.Json.float f
        | B v -> string_of_bool v))
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Requests *)

type request =
  | Query of Vmbp_report.Par_runner.cell
  | Grid of { scale : int option }
  | Stats
  | Health
  | Metrics of { format : [ `Json | `Prometheus ] }
  | Dump
  | Shutdown

let resolve_query fields =
  let str = Vmbp_store.Sjson.str fields in
  let vm_name = str "vm" in
  match
    match String.lowercase_ascii vm_name with
    | "forth" -> Some Vmbp_workloads.Forth
    | "jvm" -> Some Vmbp_workloads.Jvm
    | _ -> None
  with
  | None -> Error (Printf.sprintf "unknown vm %S" vm_name)
  | Some vm -> (
      let workload_name = str "workload" in
      match Vmbp_workloads.find ~vm workload_name with
      | None ->
          Error
            (Printf.sprintf "unknown workload %s/%s" vm_name workload_name)
      | Some workload -> (
          let technique_name = str "technique" in
          match Vmbp_core.Technique.of_name technique_name with
          | None -> Error (Printf.sprintf "unknown technique %S" technique_name)
          | Some technique -> (
              let cpu_name = str "cpu" in
              match Vmbp_machine.Cpu_model.find cpu_name with
              | None -> Error (Printf.sprintf "unknown cpu %S" cpu_name)
              | Some cpu -> (
                  let scale =
                    Option.value ~default:1
                      (Vmbp_store.Sjson.int_opt fields "scale")
                  in
                  if scale < 1 then Error "scale must be >= 1"
                  else
                    match Vmbp_store.Sjson.str_opt fields "predictor" with
                    | Some "perfect" ->
                        Ok
                          (Vmbp_report.Par_runner.cell ~tag:"service" ~scale
                             ~predictor:Vmbp_machine.Predictor.Perfect ~cpu
                             ~technique workload)
                    | Some "never" ->
                        Ok
                          (Vmbp_report.Par_runner.cell ~tag:"service" ~scale
                             ~predictor:Vmbp_machine.Predictor.Never ~cpu
                             ~technique workload)
                    | Some p ->
                        Error
                          (Printf.sprintf
                             "unknown predictor override %S (perfect|never)" p)
                    | None ->
                        Ok
                          (Vmbp_report.Par_runner.cell ~tag:"service" ~scale
                             ~cpu ~technique workload)))))

let request_of_payload payload =
  match Vmbp_store.Sjson.parse_line payload with
  | exception Vmbp_store.Sjson.Bad -> Error "malformed request payload"
  | fields -> (
      match Vmbp_store.Sjson.str_opt fields "verb" with
      | None -> Error "missing verb"
      | Some "query" -> (
          match resolve_query fields with
          | Ok c -> Ok (Query c)
          | Error _ as e -> e
          | exception Vmbp_store.Sjson.Bad ->
              Error "query needs vm, workload, technique and cpu fields")
      | Some "grid" -> (
          match Vmbp_store.Sjson.int_opt fields "scale" with
          | Some n when n < 1 -> Error "scale must be >= 1"
          | scale -> Ok (Grid { scale }))
      | Some "stats" -> Ok Stats
      | Some "health" -> Ok Health
      | Some "metrics" -> (
          match Vmbp_store.Sjson.str_opt fields "format" with
          | None | Some "json" -> Ok (Metrics { format = `Json })
          | Some "prometheus" -> Ok (Metrics { format = `Prometheus })
          | Some f ->
              Error
                (Printf.sprintf "unknown metrics format %S (json|prometheus)"
                   f))
      | Some "dump" -> Ok Dump
      | Some "shutdown" -> Ok Shutdown
      | Some v -> Error (Printf.sprintf "unknown verb %S" v))

let rid_of_payload payload =
  match Vmbp_store.Sjson.parse_line payload with
  | exception Vmbp_store.Sjson.Bad -> None
  | fields -> Vmbp_store.Sjson.str_opt fields "rid"

(* Echo a request id into a reply payload without re-rendering it: every
   reply is one flat JSON object, so the rid splices in before the
   closing brace.  Batch results serving several coalesced requests share
   one (possibly multi-megabyte) payload string; the splice is what lets
   each waiter get its own rid without reparsing or copying fields. *)
let with_rid payload rid =
  let n = String.length payload in
  if n < 2 || payload.[n - 1] <> '}' then payload
  else
    String.sub payload 0 (n - 1)
    ^ (if payload.[n - 2] = '{' then "" else ",")
    ^ "\"rid\":\""
    ^ Vmbp_store.Sjson.escape rid
    ^ "\"}"

let query_payload ~vm ~workload ~technique ~cpu ?scale ?predictor ?rid () =
  obj
    (List.concat
       [
         [
           ("verb", S "query");
           ("vm", S vm);
           ("workload", S workload);
           ("technique", S technique);
           ("cpu", S cpu);
         ];
         (match scale with Some n -> [ ("scale", I n) ] | None -> []);
         (match predictor with Some p -> [ ("predictor", S p) ] | None -> []);
         (match rid with Some r -> [ ("rid", S r) ] | None -> []);
       ])

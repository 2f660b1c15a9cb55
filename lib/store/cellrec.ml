open Vmbp_machine

type entry = {
  key : string;
  fingerprint : string;
  metrics : Metrics.t;
  steps : int;
  output : string;
}

let to_line e =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let m = e.metrics in
  add "{\"key\":\"%s\"" (Sjson.escape e.key);
  add ",\"fp\":\"%s\"" (Sjson.escape e.fingerprint);
  add ",\"ok\":true";
  add ",\"steps\":%d" e.steps;
  add ",\"output\":\"%s\"" (Sjson.escape e.output);
  add ",\"vm_instrs\":%d" m.Metrics.vm_instrs;
  add ",\"native_instrs\":%d" m.Metrics.native_instrs;
  add ",\"dispatches\":%d" m.Metrics.dispatches;
  add ",\"indirect_branches\":%d" m.Metrics.indirect_branches;
  add ",\"mispredicts\":%d" m.Metrics.mispredicts;
  add ",\"vm_branch_mispredicts\":%d" m.Metrics.vm_branch_mispredicts;
  add ",\"icache_fetches\":%d" m.Metrics.icache_fetches;
  add ",\"icache_misses\":%d" m.Metrics.icache_misses;
  add ",\"code_bytes\":%d" m.Metrics.code_bytes;
  add ",\"quickenings\":%d" m.Metrics.quickenings;
  add "}";
  Buffer.contents b

let of_line line =
  match
    let fields = Sjson.parse_line line in
    let int = Sjson.int fields in
    (* Only successes are written now; an older build's ["ok":false]
       line is one this format does not read. *)
    if not (Sjson.bool fields "ok") then raise Sjson.Bad;
    let m = Metrics.create () in
    m.Metrics.vm_instrs <- int "vm_instrs";
    m.Metrics.native_instrs <- int "native_instrs";
    m.Metrics.dispatches <- int "dispatches";
    m.Metrics.indirect_branches <- int "indirect_branches";
    m.Metrics.mispredicts <- int "mispredicts";
    m.Metrics.vm_branch_mispredicts <- int "vm_branch_mispredicts";
    m.Metrics.icache_fetches <- int "icache_fetches";
    m.Metrics.icache_misses <- int "icache_misses";
    m.Metrics.code_bytes <- int "code_bytes";
    m.Metrics.quickenings <- int "quickenings";
    {
      key = Sjson.str fields "key";
      fingerprint = Sjson.str fields "fp";
      metrics = m;
      steps = int "steps";
      output = Sjson.str fields "output";
    }
  with
  | e -> Some e
  | exception Sjson.Bad -> None

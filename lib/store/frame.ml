type decoded = Framed of string | Corrupt

let magic = "vf1 "

let encode payload =
  if String.contains payload '\n' then invalid_arg "Frame.encode: newline";
  Printf.sprintf "%s%08x %d %s\n" magic (Crc32.digest payload)
    (String.length payload) payload

(* "vf1 CCCCCCCC LLL payload".  Parsed positionally: the CRC field is
   exactly 8 hex digits, then one space, then the decimal length, one
   space, and the payload must run exactly to the end of the line. *)
let decode line =
  let n = String.length line in
  if n < 14 || String.sub line 0 4 <> magic || line.[12] <> ' ' then Corrupt
  else
    match int_of_string_opt ("0x" ^ String.sub line 4 8) with
    | None -> Corrupt
    | Some crc -> (
        match String.index_from_opt line 13 ' ' with
        | None -> Corrupt
        | Some sp -> (
            match int_of_string_opt (String.sub line 13 (sp - 13)) with
            | None -> Corrupt
            | Some len ->
                let start = sp + 1 in
                if len < 0 || start + len <> n then Corrupt
                else if Crc32.digest_sub line ~pos:start ~len <> crc then
                  Corrupt
                else Framed (String.sub line start len)))

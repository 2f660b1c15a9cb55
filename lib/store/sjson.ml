exception Bad

type v = S of string | I of int | F of float | B of bool | Null

let escape = Vmbp_obs.Json.escape

let parse_line s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos >= n then raise Bad else s.[!pos] in
  let advance () = incr pos in
  let expect c = if peek () <> c then raise Bad else advance () in
  let literal w = String.iter expect w in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      let c = peek () in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        let e = peek () in
        advance ();
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
            if !pos + 4 > n then raise Bad;
            (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
            (* The writers only \u-escape ASCII control characters. *)
            | Some code when code < 0x80 ->
                pos := !pos + 4;
                Buffer.add_char b (Char.chr code)
            | _ -> raise Bad)
        | _ -> raise Bad);
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && numchar s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with
    | Some i -> I i
    | None -> (
        match float_of_string_opt lit with
        | Some f -> F f
        | None -> raise Bad)
  in
  let parse_value () =
    match peek () with
    | '"' -> S (parse_string ())
    | 't' ->
        literal "true";
        B true
    | 'f' ->
        literal "false";
        B false
    | 'n' ->
        literal "null";
        Null
    | '-' | '0' .. '9' -> parse_number ()
    | _ -> raise Bad
  in
  expect '{';
  let fields = ref [] in
  (if peek () = '}' then advance ()
   else
     let rec members () =
       let k = parse_string () in
       expect ':';
       fields := (k, parse_value ()) :: !fields;
       match peek () with
       | ',' ->
           advance ();
           members ()
       | '}' -> advance ()
       | _ -> raise Bad
     in
     members ());
  while !pos < n do
    (match s.[!pos] with ' ' | '\t' | '\r' -> () | _ -> raise Bad);
    advance ()
  done;
  !fields

let str fields k =
  match List.assoc_opt k fields with Some (S s) -> s | _ -> raise Bad

let int fields k =
  match List.assoc_opt k fields with Some (I i) -> i | _ -> raise Bad

let num fields k =
  match List.assoc_opt k fields with
  | Some (I i) -> float_of_int i
  | Some (F f) -> f
  | _ -> raise Bad

let bool fields k =
  match List.assoc_opt k fields with Some (B b) -> b | _ -> raise Bad

let str_opt fields k =
  match List.assoc_opt k fields with Some (S s) -> Some s | _ -> None

let int_opt fields k =
  match List.assoc_opt k fields with Some (I i) -> Some i | _ -> None

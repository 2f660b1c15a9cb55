let render ~headers ~rows =
  let all = headers :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init ncols width in
  let render_row row =
    String.concat "  "
      (List.mapi
         (fun c w ->
           let cell = Option.value (List.nth_opt row c) ~default:"" in
           (* Right-align numbers, left-align the first column. *)
           if c = 0 then Printf.sprintf "%-*s" w cell
           else Printf.sprintf "%*s" w cell)
         widths)
  in
  let rule =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (render_row headers :: rule :: List.map render_row rows)
  ^ "\n"

let f2 v = Printf.sprintf "%.2f" v

let human_int v =
  let fv = float_of_int v in
  if abs v >= 10_000_000_000 then Printf.sprintf "%.1fG" (fv /. 1e9)
  else if abs v >= 10_000_000 then Printf.sprintf "%.1fM" (fv /. 1e6)
  else if abs v >= 10_000 then Printf.sprintf "%.1fK" (fv /. 1e3)
  else string_of_int v

(* Code lines of the OCaml sources (.ml, .mli) in each directory under
   a root (default lib), and their total.  A code line holds at least
   one non-blank character outside comments.  Comments nest, and the
   string, quoted-string and character literals inside and outside them
   are skipped as OCaml lexes them, so a "*)" in a string neither opens
   nor closes anything.  Run as `ocaml tools/loc.ml [ROOT]` (`make loc`);
   it needs nothing beyond the OCaml toplevel. *)

let code_lines text =
  let n = String.length text in
  let lines = ref 0 and code = ref false and depth = ref 0 and i = ref 0 in
  let newline () =
    if !code then incr lines;
    code := false
  in
  (* one character of a literal or of plain text: newlines end lines,
     other non-blank characters are code outside comments *)
  let char_at k =
    match text.[k] with
    | '\n' -> newline ()
    | ' ' | '\t' | '\r' -> ()
    | _ -> if !depth = 0 then code := true
  in
  let ident c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false
  in
  let at k c = k < n && text.[k] = c in
  while !i < n do
    let c = text.[!i] in
    if c = '(' && at (!i + 1) '*' then begin
      incr depth;
      i := !i + 2
    end
    else if c = '*' && at (!i + 1) ')' && !depth > 0 then begin
      decr depth;
      i := !i + 2
    end
    else if c = '"' then begin
      (* a string literal: up to the next unescaped quote *)
      char_at !i;
      incr i;
      while !i < n && text.[!i] <> '"' do
        if text.[!i] = '\\' && !i + 1 < n then begin
          char_at !i;
          incr i
        end;
        char_at !i;
        incr i
      done;
      if !i < n then char_at !i;
      incr i
    end
    else if c = '{' then begin
      (* a quoted string {id|...|id}, or a plain brace *)
      let j = ref (!i + 1) in
      while !j < n && (match text.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
        incr j
      done;
      if at !j '|' then begin
        let close = "|" ^ String.sub text (!i + 1) (!j - !i - 1) ^ "}" in
        let m = String.length close in
        while !i < n && not (!i > !j && !i + m <= n && String.sub text !i m = close) do
          char_at !i;
          incr i
        done;
        for k = !i to min (n - 1) (!i + m - 1) do
          char_at k
        done;
        i := !i + m
      end
      else begin
        char_at !i;
        incr i
      end
    end
    else if c = '\'' && (!i = 0 || not (ident text.[!i - 1])) then begin
      (* a character literal ('x', '\n', '\''), else a type variable *)
      let len =
        if at (!i + 1) '\\' then
          match String.index_from_opt text (!i + 3) '\'' with
          | Some k when k - !i <= 5 -> k - !i + 1
          | _ -> 1
        else if at (!i + 2) '\'' && not (at (!i + 1) '\n') then 3
        else 1
      in
      for k = !i to !i + len - 1 do
        char_at k
      done;
      i := !i + len
    end
    else begin
      char_at !i;
      incr i
    end
  done;
  newline ();
  !lines

let read path = In_channel.with_open_bin path In_channel.input_all

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "lib" in
  let sorted d = List.sort compare (Array.to_list (Sys.readdir d)) in
  let total = ref 0 in
  List.iter
    (fun d ->
      let dir = Filename.concat root d in
      if Sys.is_directory dir then begin
        let k =
          List.fold_left
            (fun k f ->
              if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then
                k + code_lines (read (Filename.concat dir f))
              else k)
            0 (sorted dir)
        in
        total := !total + k;
        Printf.printf "%-16s %6d\n" dir k
      end)
    (sorted root);
  Printf.printf "%-16s %6d\n" "total" !total

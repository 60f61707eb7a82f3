type pos = { line : int; col : int }

type span = { start : pos; stop : pos }

let pos ~line ~col =
  if line < 1 || col < 1 then invalid_arg "Loc.pos: line and column are 1-based";
  { line; col }

let span start stop = { start; stop }

let compare_pos a b =
  match Int.compare a.line b.line with 0 -> Int.compare a.col b.col | c -> c

let of_offset text offset =
  let n = String.length text in
  let offset = if offset < 0 then 0 else min offset n in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to offset - 1 do
    if text.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  { line = !line; col = offset - !bol + 1 }

let line_span text wanted =
  let n = String.length text in
  (* Walk lines, remembering the last one so overshooting clamps. *)
  let rec walk lineno start =
    let stop =
      match String.index_from_opt text start '\n' with
      | Some i -> i
      | None -> n
    in
    if lineno = wanted || stop >= n then
      {
        start = { line = lineno; col = 1 };
        stop = { line = lineno; col = stop - start + 1 };
      }
    else walk (lineno + 1) (stop + 1)
  in
  walk 1 0

let is_word_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let find_word text needle =
  let nt = String.length text and nn = String.length needle in
  if nn = 0 then None
  else begin
    (* Compared in place: a substring per offset would allocate once
       per byte of the text. *)
    let matches_at i =
      let j = ref 0 in
      while !j < nn && Char.equal text.[i + !j] needle.[!j] do incr j done;
      !j = nn
    in
    let found = ref None in
    let i = ref 0 in
    while !found = None && !i + nn <= nt do
      if
        matches_at !i
        && ((!i = 0 || not (is_word_char text.[!i - 1]))
           && (!i + nn >= nt || not (is_word_char text.[!i + nn])))
      then found := Some !i
      else incr i
    done;
    Option.map
      (fun off ->
        let start = of_offset text off in
        { start; stop = { start with col = start.col + nn } })
      !found
  end

let pp_pos ppf p = Format.fprintf ppf "%d:%d" p.line p.col

let pp_span ppf s =
  if compare_pos s.start s.stop = 0 then pp_pos ppf s.start
  else Format.fprintf ppf "%a-%a" pp_pos s.start pp_pos s.stop

let to_string s = Format.asprintf "%a" pp_span s

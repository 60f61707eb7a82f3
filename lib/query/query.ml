type comparison = Eq | Neq | Lt | Le | Gt | Ge

type predicate = { attr : string; op : comparison; value : Conversion.value }

type aggregate = Count | Sum of string | Avg of string | Min of string | Max of string

type direction = Asc | Desc

type t = {
  concept : Term.t;
  select : string list;
  aggregates : aggregate list;
  where : predicate list;
  order_by : (string * direction) option;
  limit : int option;
}

let v ?(select = []) ?(aggregates = []) ?(where = []) ?order_by ?limit concept =
  if select <> [] && aggregates <> [] then
    invalid_arg "Query.v: select attributes and aggregates are exclusive";
  (match limit with
  | Some n when n < 0 -> invalid_arg "Query.v: negative limit"
  | _ -> ());
  { concept; select; aggregates; where; order_by; limit }

let compare_values v1 v2 =
  match ((v1 : Conversion.value), (v2 : Conversion.value)) with
  | Conversion.Num a, Conversion.Num b -> Some (Float.compare a b)
  | Conversion.Str a, Conversion.Str b -> Some (String.compare a b)
  | Conversion.Bool a, Conversion.Bool b -> Some (Bool.compare a b)
  | _ -> None

(* Ordering predicates only; Eq/Neq are handled structurally in [holds]
   (they also apply to values that do not order, e.g. booleans vs nums). *)
let ordered_holds op c =
  match op with
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0
  | Eq -> c = 0
  | Neq -> c <> 0

let holds p actual =
  match p.op with
  | Eq -> Conversion.equal_value actual p.value
  | Neq -> not (Conversion.equal_value actual p.value)
  | (Lt | Le | Gt | Ge) as op -> (
      match compare_values actual p.value with
      | None -> false
      | Some c -> ordered_holds op c)

let aggregate_attr = function
  | Count -> None
  | Sum a | Avg a | Min a | Max a -> Some a

let aggregate_label = function
  | Count -> "COUNT(*)"
  | Sum a -> Printf.sprintf "SUM(%s)" a
  | Avg a -> Printf.sprintf "AVG(%s)" a
  | Min a -> Printf.sprintf "MIN(%s)" a
  | Max a -> Printf.sprintf "MAX(%s)" a

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

type token =
  | Kselect
  | Kfrom
  | Kwhere
  | Kand
  | Korder
  | Kby
  | Klimit
  | Kasc
  | Kdesc
  | Tident of string
  | Tnum of float
  | Tstr of string
  | Tbool of bool
  | Tstar
  | Tcomma
  | Tcolon
  | Tlpar
  | Trpar
  | Top of comparison

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let err m = raise (Invalid_argument m) in
  let is_ident_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '.'
  in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '*' then begin
      toks := Tstar :: !toks;
      incr i
    end
    else if c = ',' then begin
      toks := Tcomma :: !toks;
      incr i
    end
    else if c = ':' then begin
      toks := Tcolon :: !toks;
      incr i
    end
    else if c = '(' then begin
      toks := Tlpar :: !toks;
      incr i
    end
    else if c = ')' then begin
      toks := Trpar :: !toks;
      incr i
    end
    else if c = '\'' then begin
      match String.index_from_opt src (!i + 1) '\'' with
      | None -> err "unterminated string literal"
      | Some close ->
          toks := Tstr (String.sub src (!i + 1) (close - !i - 1)) :: !toks;
          i := close + 1
    end
    else if c = '<' || c = '>' || c = '=' || c = '!' then begin
      let two = if !i + 1 < n then String.sub src !i 2 else String.make 1 c in
      match two with
      | "<=" ->
          toks := Top Le :: !toks;
          i := !i + 2
      | ">=" ->
          toks := Top Ge :: !toks;
          i := !i + 2
      | "!=" | "<>" ->
          toks := Top Neq :: !toks;
          i := !i + 2
      | "==" ->
          toks := Top Eq :: !toks;
          i := !i + 2
      | _ -> (
          match c with
          | '<' ->
              toks := Top Lt :: !toks;
              incr i
          | '>' ->
              toks := Top Gt :: !toks;
              incr i
          | '=' ->
              toks := Top Eq :: !toks;
              incr i
          | _ -> err "lone '!'")
    end
    else if (c >= '0' && c <= '9') || c = '-' then begin
      let start = !i in
      incr i;
      while
        !i < n
        && ((src.[!i] >= '0' && src.[!i] <= '9')
           || src.[!i] = '.' || src.[!i] = 'e' || src.[!i] = 'E' || src.[!i] = '-'
           || src.[!i] = '+')
      do
        incr i
      done;
      match float_of_string_opt (String.sub src start (!i - start)) with
      | Some f -> toks := Tnum f :: !toks
      | None -> err "malformed number"
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      let word = String.sub src start (!i - start) in
      (* Either side of a ':' is a name: [FROM a0:Order] qualifies a
         concept called Order. *)
      let qualifying =
        (match !toks with Tcolon :: _ -> true | _ -> false)
        || (!i < n && src.[!i] = ':')
      in
      let tok =
        if qualifying then Tident word
        else
        match String.lowercase_ascii word with
        | "select" -> Kselect
        | "from" -> Kfrom
        | "where" -> Kwhere
        | "and" -> Kand
        | "order" -> Korder
        | "by" -> Kby
        | "limit" -> Klimit
        | "asc" -> Kasc
        | "desc" -> Kdesc
        | "true" -> Tbool true
        | "false" -> Tbool false
        | _ -> Tident word
      in
      toks := tok :: !toks
    end
    else err (Printf.sprintf "unexpected character %C" c)
  done;
  List.rev !toks

let parse ?(default_ontology = "transport") src =
  try
    let toks = ref (tokenize src) in
    let next () =
      match !toks with
      | [] -> raise (Invalid_argument "unexpected end of query")
      | t :: rest ->
          toks := rest;
          t
    in
    let peek () = match !toks with t :: _ -> Some t | [] -> None in
    (match next () with
    | Kselect -> ()
    | _ -> raise (Invalid_argument "query must start with SELECT"));
    (* SELECT items: '*', attrs, or aggregates. *)
    let select = ref [] and aggregates = ref [] in
    let parse_item () =
      match next () with
      | Tstar -> ()
      | Tident name -> (
          match peek () with
          | Some Tlpar ->
              ignore (next ());
              let arg =
                match next () with
                | Tstar -> None
                | Tident a -> Some a
                | _ -> raise (Invalid_argument "expected attribute or * in aggregate")
              in
              (match next () with
              | Trpar -> ()
              | _ -> raise (Invalid_argument "expected ')'"));
              let agg =
                match (String.lowercase_ascii name, arg) with
                | "count", _ -> Count
                | "sum", Some a -> Sum a
                | "avg", Some a -> Avg a
                | "min", Some a -> Min a
                | "max", Some a -> Max a
                | _, None -> raise (Invalid_argument "only COUNT accepts *")
                | other, _ ->
                    raise (Invalid_argument ("unknown aggregate " ^ other))
              in
              aggregates := !aggregates @ [ agg ]
          | _ -> select := !select @ [ name ])
      | _ -> raise (Invalid_argument "expected attribute, aggregate or * in SELECT")
    in
    parse_item ();
    let rec more () =
      match peek () with
      | Some Tcomma ->
          ignore (next ());
          parse_item ();
          more ()
      | _ -> ()
    in
    more ();
    if !select <> [] && !aggregates <> [] then
      raise (Invalid_argument "attributes and aggregates cannot be mixed");
    (match next () with
    | Kfrom -> ()
    | _ -> raise (Invalid_argument "expected FROM"));
    let concept =
      match next () with
      | Tident a -> (
          match (peek (), !toks) with
          | Some Tcolon, _ :: Tident b :: rest ->
              toks := rest;
              Term.make ~ontology:a b
          | _ -> Term.make ~ontology:default_ontology a)
      | _ -> raise (Invalid_argument "expected a concept after FROM")
    in
    let where =
      match peek () with
      | Some Kwhere ->
          ignore (next ());
          let rec preds acc =
            let attr =
              match next () with
              | Tident a -> a
              | _ -> raise (Invalid_argument "expected attribute in WHERE")
            in
            let op =
              match next () with
              | Top op -> op
              | _ -> raise (Invalid_argument "expected comparison operator")
            in
            let value =
              match next () with
              | Tnum f -> Conversion.Num f
              | Tstr s -> Conversion.Str s
              | Tbool b -> Conversion.Bool b
              | Tident s -> Conversion.Str s
              | _ -> raise (Invalid_argument "expected a literal value")
            in
            let acc = { attr; op; value } :: acc in
            match peek () with
            | Some Kand ->
                ignore (next ());
                preds acc
            | _ -> List.rev acc
          in
          preds []
      | _ -> []
    in
    let order_by =
      match peek () with
      | Some Korder ->
          ignore (next ());
          (match next () with
          | Kby -> ()
          | _ -> raise (Invalid_argument "expected BY after ORDER"));
          let attr =
            match next () with
            | Tident a -> a
            | _ -> raise (Invalid_argument "expected attribute after ORDER BY")
          in
          let dir =
            match peek () with
            | Some Kdesc ->
                ignore (next ());
                Desc
            | Some Kasc ->
                ignore (next ());
                Asc
            | _ -> Asc
          in
          Some (attr, dir)
      | _ -> None
    in
    let limit =
      match peek () with
      | Some Klimit -> (
          ignore (next ());
          match next () with
          | Tnum f when Float.is_integer f && f >= 0.0 -> Some (int_of_float f)
          | _ -> raise (Invalid_argument "expected a non-negative integer after LIMIT"))
      | _ -> None
    in
    (match peek () with
    | None -> ()
    | Some _ -> raise (Invalid_argument "trailing tokens after query"));
    Ok { concept; select = !select; aggregates = !aggregates; where; order_by; limit }
  with Invalid_argument m -> Error m

let parse_exn ?default_ontology src =
  match parse ?default_ontology src with
  | Ok q -> q
  | Error m -> invalid_arg ("Query.parse_exn: " ^ m)

let string_of_op = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let string_of_value = function
  | Conversion.Num f -> Format.asprintf "%g" f
  | Conversion.Str s -> "'" ^ s ^ "'"
  | Conversion.Bool b -> string_of_bool b

let to_string q =
  let items =
    (* [v] rejects mixing select attributes and aggregates, but records can
       be built by hand, so render the mixed case instead of crashing. *)
    match (q.select, q.aggregates) with
    | [], [] -> "*"
    | attrs, aggs -> String.concat ", " (attrs @ List.map aggregate_label aggs)
  in
  let buf = Buffer.create 64 in
  Buffer.add_string buf
    (Printf.sprintf "SELECT %s FROM %s" items (Term.qualified q.concept));
  (match q.where with
  | [] -> ()
  | preds ->
      Buffer.add_string buf " WHERE ";
      Buffer.add_string buf
        (String.concat " AND "
           (List.map
              (fun p ->
                Printf.sprintf "%s %s %s" p.attr (string_of_op p.op)
                  (string_of_value p.value))
              preds)));
  (match q.order_by with
  | Some (attr, Asc) -> Buffer.add_string buf (Printf.sprintf " ORDER BY %s ASC" attr)
  | Some (attr, Desc) -> Buffer.add_string buf (Printf.sprintf " ORDER BY %s DESC" attr)
  | None -> ());
  (match q.limit with
  | Some n -> Buffer.add_string buf (Printf.sprintf " LIMIT %d" n)
  | None -> ());
  Buffer.contents buf

let pp ppf q = Format.pp_print_string ppf (to_string q)

let check_bool = Alcotest.(check bool)

let num f = Conversion.Num f

let parse_ok s =
  match Query.parse s with
  | Ok q -> q
  | Error m -> Alcotest.failf "parse %S failed: %s" s m

let test_select_star () =
  let q = parse_ok "SELECT * FROM Vehicle" in
  check_bool "empty select = *" true (q.Query.select = []);
  Alcotest.(check string) "default ontology" "transport:Vehicle"
    (Term.qualified q.Query.concept)

let test_select_list () =
  let q = parse_ok "SELECT Price, Owner FROM carrier:Cars" in
  Alcotest.(check (list string)) "attrs" [ "Price"; "Owner" ] q.Query.select;
  Alcotest.(check string) "qualified" "carrier:Cars" (Term.qualified q.Query.concept)

let test_where_clause () =
  let q = parse_ok "SELECT Price FROM Vehicle WHERE Price < 5000 AND Owner = 'gio'" in
  match q.Query.where with
  | [ p1; p2 ] ->
      check_bool "numeric lt" true (p1.Query.op = Query.Lt && p1.Query.value = num 5000.0);
      check_bool "string eq" true
        (p2.Query.op = Query.Eq && p2.Query.value = Conversion.Str "gio")
  | _ -> Alcotest.fail "expected two predicates"

let test_operators () =
  List.iter
    (fun (src, op) ->
      let q = parse_ok (Printf.sprintf "SELECT * FROM V WHERE X %s 1" src) in
      match q.Query.where with
      | [ p ] -> check_bool src true (p.Query.op = op)
      | _ -> Alcotest.fail "expected one predicate")
    [ ("=", Query.Eq); ("==", Query.Eq); ("!=", Query.Neq); ("<>", Query.Neq);
      ("<", Query.Lt); ("<=", Query.Le); (">", Query.Gt); (">=", Query.Ge) ]

let test_case_insensitive_keywords () =
  let q = parse_ok "select Price from Vehicle where Price > 10" in
  check_bool "parsed" true (q.Query.where <> [])

let test_booleans_and_negatives () =
  let q = parse_ok "SELECT * FROM V WHERE Active = true AND Delta > -5" in
  match q.Query.where with
  | [ p1; p2 ] ->
      check_bool "bool" true (p1.Query.value = Conversion.Bool true);
      check_bool "negative" true (p2.Query.value = num (-5.0))
  | _ -> Alcotest.fail "expected two predicates"

let test_errors () =
  check_bool "missing select" true (Result.is_error (Query.parse "FROM X"));
  check_bool "missing from" true (Result.is_error (Query.parse "SELECT *"));
  check_bool "trailing" true (Result.is_error (Query.parse "SELECT * FROM X garbage = 1"));
  check_bool "unterminated string" true
    (Result.is_error (Query.parse "SELECT * FROM X WHERE a = 'oops"));
  check_bool "empty" true (Result.is_error (Query.parse ""))

let test_holds () =
  let p op value = { Query.attr = "x"; op; value } in
  check_bool "eq num" true (Query.holds (p Query.Eq (num 5.0)) (num 5.0));
  check_bool "neq" true (Query.holds (p Query.Neq (num 5.0)) (num 6.0));
  check_bool "lt" true (Query.holds (p Query.Lt (num 5.0)) (num 4.0));
  check_bool "ge" true (Query.holds (p Query.Ge (num 5.0)) (num 5.0));
  check_bool "string ordering" true
    (Query.holds (p Query.Lt (Conversion.Str "b")) (Conversion.Str "a"));
  check_bool "type mismatch false" false
    (Query.holds (p Query.Lt (num 5.0)) (Conversion.Str "4"));
  check_bool "bool eq" true
    (Query.holds (p Query.Eq (Conversion.Bool true)) (Conversion.Bool true))

let test_to_string_roundtrip () =
  List.iter
    (fun src ->
      let q = parse_ok src in
      let q2 = parse_ok (Query.to_string q) in
      check_bool ("roundtrip " ^ src) true (q = q2))
    [
      "SELECT * FROM transport:Vehicle";
      "SELECT Price, Owner FROM carrier:Cars WHERE Price < 5000";
      "SELECT Price FROM Vehicle WHERE Owner = 'gio' AND Price >= 100";
    ]

(* A qualified concept may carry a keyword's name: printing any query
   over one and parsing the text gives the query back. *)
let keyword_names =
  [ "Order"; "By"; "Limit"; "Asc"; "Desc"; "Select"; "From"; "Where"; "And";
    "True"; "False" ]

let prop_keyword_concepts_roundtrip =
  let open QCheck.Gen in
  let concept =
    map2
      (fun o c -> Term.make ~ontology:o c)
      (oneofl [ "a0"; "transport"; "Order" ])
      (oneofl (keyword_names @ List.map String.lowercase_ascii keyword_names))
  in
  let attr = oneofl [ "Price"; "Weight"; "Capacity" ] in
  let value =
    oneof
      [
        map (fun i -> Conversion.Num (float_of_int i)) (int_range (-500) 50_000);
        map (fun s -> Conversion.Str s) (oneofl [ "gio"; "x y"; "Order" ]);
        map (fun b -> Conversion.Bool b) bool;
      ]
  in
  let pred =
    map3
      (fun attr op value -> { Query.attr; op; value })
      attr
      (oneofl Query.[ Eq; Neq; Lt; Le; Gt; Ge ])
      value
  in
  let items =
    oneof
      [
        map (fun a -> (a, [])) (list_size (int_range 0 2) attr);
        map
          (fun g -> ([], g))
          (list_size (int_range 1 2)
             (oneofl Query.[ Count; Sum "Price"; Avg "Weight"; Max "Capacity" ]));
      ]
  in
  let query =
    concept >>= fun c ->
    items >>= fun (select, aggregates) ->
    list_size (int_range 0 2) pred >>= fun where ->
    opt (pair attr (oneofl Query.[ Asc; Desc ])) >>= fun order_by ->
    opt (int_range 0 100) >>= fun limit ->
    return (Query.v ~select ~aggregates ~where ?order_by ?limit c)
  in
  QCheck.Test.make ~count:300 ~name:"keyword-named concepts round-trip"
    (QCheck.make ~print:Query.to_string query)
    (fun q -> Query.parse (Query.to_string q) = Ok q)

let test_bare_keyword_reserved () =
  check_bool "bare keyword concept" true
    (Result.is_error (Query.parse "SELECT * FROM Order"));
  check_bool "qualified keyword concept" true
    (Query.parse "SELECT * FROM a0:Order"
    = Ok (Query.v (Term.make ~ontology:"a0" "Order")))

let suite =
  [
    ( "query",
      [
        Alcotest.test_case "select star" `Quick test_select_star;
        Alcotest.test_case "select list" `Quick test_select_list;
        Alcotest.test_case "where" `Quick test_where_clause;
        Alcotest.test_case "operators" `Quick test_operators;
        Alcotest.test_case "case keywords" `Quick test_case_insensitive_keywords;
        Alcotest.test_case "bool/negative" `Quick test_booleans_and_negatives;
        Alcotest.test_case "errors" `Quick test_errors;
        Alcotest.test_case "holds" `Quick test_holds;
        Alcotest.test_case "roundtrip" `Quick test_to_string_roundtrip;
        Alcotest.test_case "bare keywords stay reserved" `Quick
          test_bare_keyword_reserved;
        QCheck_alcotest.to_alcotest prop_keyword_concepts_roundtrip;
      ] );
  ]

(* Tests for the XML substrate (Fd_xml.Xml). *)

module X = Fd_xml.Xml

let parse = X.parse_string

let test_simple_element () =
  match parse "<a/>" with
  | X.Element ("a", [], []) -> ()
  | _ -> Alcotest.fail "expected <a/>"

let test_attrs () =
  let e = parse {|<activity android:name=".Main" enabled="true"/>|} in
  Alcotest.(check (option string)) "name" (Some ".Main") (X.attr e "android:name");
  Alcotest.(check (option string)) "enabled" (Some "true") (X.attr e "enabled");
  Alcotest.(check (option string)) "absent" None (X.attr e "exported");
  Alcotest.(check string) "default" "false" (X.attr_dflt e "exported" ~default:"false")

let test_single_quotes () =
  let e = parse "<e a='x y'/>" in
  Alcotest.(check (option string)) "single-quoted" (Some "x y") (X.attr e "a")

let test_nested () =
  let e = parse "<m><application><activity/><service/></application></m>" in
  let app = List.hd (X.children_named e "application") in
  Alcotest.(check int) "two components" 2 (List.length (X.children app));
  Alcotest.(check int) "one activity" 1 (List.length (X.children_named app "activity"))

let test_text () =
  let e = parse "<t>hello <b>world</b> tail</t>" in
  Alcotest.(check string) "direct text" "hello  tail" (X.text e)

let test_entities () =
  let e = parse {|<t a="a&amp;b&lt;c&gt;d&quot;e&apos;f">x &amp; y</t>|} in
  Alcotest.(check (option string)) "attr entities" (Some "a&b<c>d\"e'f") (X.attr e "a");
  Alcotest.(check string) "text entities" "x & y" (X.text e)

let test_char_refs () =
  let e = parse "<t>&#65;&#x42;</t>" in
  Alcotest.(check string) "numeric refs" "AB" (X.text e)

let test_prolog_and_comments () =
  let src =
    {|<?xml version="1.0" encoding="utf-8"?>
<!-- manifest for the test app -->
<manifest package="com.example">
  <!-- inner comment -->
  <application/>
</manifest>|}
  in
  let e = parse src in
  Alcotest.(check string) "root tag" "manifest" (X.tag e);
  Alcotest.(check int) "one child" 1 (List.length (X.children e))

let test_cdata () =
  let e = parse "<t><![CDATA[<not-xml> & raw]]></t>" in
  Alcotest.(check string) "cdata text" "<not-xml> & raw" (X.text e)

let test_descendants () =
  let e =
    parse
      "<LinearLayout><LinearLayout><EditText id='a'/></LinearLayout><EditText \
       id='b'/></LinearLayout>"
  in
  let ds = X.descendants_named e "EditText" in
  Alcotest.(check (list (option string)))
    "both edit texts, document order"
    [ Some "a"; Some "b" ]
    (List.map (fun d -> X.attr d "id") ds)

let check_parse_error src =
  match parse src with
  | exception X.Parse_error _ -> ()
  | _ -> Alcotest.fail (Printf.sprintf "expected parse error on %S" src)

let test_errors () =
  List.iter check_parse_error
    [
      "";
      "<a>";
      "<a></b>";
      "<a";
      "<a b=c/>";
      "<a b='x/>";
      "<a/><b/>";
      "<a>&unknown;</a>";
      "<a><!-- unterminated</a>";
      "text only";
    ]

let test_android_manifest_shape () =
  (* representative of the manifests the frontend will consume *)
  let src =
    {|<?xml version="1.0"?>
<manifest package="de.ecspride">
  <application android:label="LeakageApp">
    <activity android:name="de.ecspride.LeakageApp">
      <intent-filter>
        <action android:name="android.intent.action.MAIN"/>
        <category android:name="android.intent.category.LAUNCHER"/>
      </intent-filter>
    </activity>
    <service android:name="de.ecspride.BgService" android:enabled="false"/>
  </application>
</manifest>|}
  in
  let m = parse src in
  let app = List.hd (X.children_named m "application") in
  let acts = X.children_named app "activity" in
  let svcs = X.children_named app "service" in
  Alcotest.(check int) "1 activity" 1 (List.length acts);
  Alcotest.(check (option string))
    "service disabled" (Some "false")
    (X.attr (List.hd svcs) "android:enabled");
  let filters = X.descendants_named m "action" in
  Alcotest.(check (option string))
    "main action"
    (Some "android.intent.action.MAIN")
    (X.attr (List.hd filters) "android:name")

(* round-trip property: to_string then parse_string preserves structure
   (modulo whitespace-only text nodes, which our generator avoids). *)

let gen_xml : X.t QCheck.Gen.t =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "view"; "activity"; "item" ] in
  let attr_val =
    oneofl [ "x"; "hello world"; "a&b"; "<tag>"; "it's"; "\"q\"" ]
  in
  let attrs =
    list_size (int_bound 3)
      (pair (oneofl [ "k"; "android:name"; "id" ]) attr_val)
    >|= fun kvs ->
    (* attribute names must be unique within an element *)
    List.sort_uniq (fun (a, _) (b, _) -> compare a b) kvs
  in
  fix
    (fun self depth ->
      if depth = 0 then
        map2 (fun n a -> X.Element (n, a, [])) name attrs
      else
        map3
          (fun n a kids -> X.Element (n, a, kids))
          name attrs
          (list_size (int_bound 3) (self (depth - 1))))
    2

let arb_xml = QCheck.make ~print:X.to_string gen_xml

let prop_roundtrip =
  QCheck.Test.make ~name:"to_string/parse_string round-trip" ~count:300 arb_xml
    (fun e -> parse (X.to_string e) = e)

(* the serialiser's exact bytes: indentation, self-closing empty
   elements, escapes in attributes and text, and the [?indent] and
   [?prolog] arguments *)
let test_to_string_bytes () =
  let e =
    X.Element
      ( "r",
        [ ("a", "x&y"); ("b", "<'\">") ],
        [
          X.Element ("e", [], []);
          X.Element ("k", [ ("n", "1") ], [ X.Text "t < u & v" ]);
        ] )
  in
  Alcotest.(check string)
    "default indent"
    "<r a=\"x&amp;y\" b=\"&lt;&apos;&quot;&gt;\">\n  <e/>\n  <k n=\"1\">\n    t &lt; u &amp; v\n  </k>\n</r>\n"
    (X.to_string e);
  Alcotest.(check string)
    "indent 0 with a prolog"
    "<?p?>\n<r a=\"x&amp;y\" b=\"&lt;&apos;&quot;&gt;\">\n<e/>\n<k n=\"1\">\nt &lt; u &amp; v\n</k>\n</r>\n"
    (X.to_string ~indent:0 ~prolog:"<?p?>\n" e)

let () =
  Alcotest.run "fd_xml"
    [
      ( "parse",
        [
          Alcotest.test_case "simple" `Quick test_simple_element;
          Alcotest.test_case "attributes" `Quick test_attrs;
          Alcotest.test_case "single quotes" `Quick test_single_quotes;
          Alcotest.test_case "nesting" `Quick test_nested;
          Alcotest.test_case "text" `Quick test_text;
          Alcotest.test_case "entities" `Quick test_entities;
          Alcotest.test_case "char refs" `Quick test_char_refs;
          Alcotest.test_case "prolog+comments" `Quick test_prolog_and_comments;
          Alcotest.test_case "cdata" `Quick test_cdata;
          Alcotest.test_case "descendants" `Quick test_descendants;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "android manifest shape" `Quick
            test_android_manifest_shape;
        ] );
      ("print", [ Alcotest.test_case "exact bytes" `Quick test_to_string_bytes ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_roundtrip ]);
    ]

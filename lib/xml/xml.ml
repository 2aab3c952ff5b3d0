(** A small, dependency-free XML parser.

    Android apps carry their entry-point and callback metadata in XML
    ([AndroidManifest.xml], layout resources).  FlowDroid parses these
    files as the first pipeline stage (Figure 4 of the paper); this
    module provides the equivalent substrate.

    The dialect supported is the subset Android resource files use:
    prolog ([<?xml ...?>]), comments, elements with namespaced
    attributes, text nodes, CDATA, and the five predefined entities.
    DTDs and processing instructions other than the prolog are not
    supported. *)

type t =
  | Element of string * (string * string) list * t list
      (** [Element (tag, attrs, children)] *)
  | Text of string  (** character data between elements *)

exception Parse_error of int * string
(** [Parse_error (pos, msg)]: byte offset of the failure and a
    human-readable description. *)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type state = { src : string; mutable pos : int }

let fail st msg = raise (Parse_error (st.pos, msg))
let eof st = st.pos >= String.length st.src
let peek st = if eof st then '\000' else st.src.[st.pos]
let advance st = st.pos <- st.pos + 1

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let expect st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else fail st (Printf.sprintf "expected %S" s)

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_space st =
  while (not (eof st)) && is_space (peek st) do
    advance st
  done

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let read_name st =
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  if st.pos = start then fail st "expected a name";
  String.sub st.src start (st.pos - start)

let decode_entities st s =
  if not (String.contains s '&') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '&' then begin
        match String.index_from_opt s !i ';' with
        | None -> fail st "unterminated entity reference"
        | Some j ->
            let name = String.sub s (!i + 1) (j - !i - 1) in
            let c =
              match name with
              | "amp" -> "&"
              | "lt" -> "<"
              | "gt" -> ">"
              | "quot" -> "\""
              | "apos" -> "'"
              | _ ->
                  if String.length name > 1 && name.[0] = '#' then
                    let code =
                      try
                        if name.[1] = 'x' || name.[1] = 'X' then
                          int_of_string ("0x" ^ String.sub name 2 (String.length name - 2))
                        else int_of_string (String.sub name 1 (String.length name - 1))
                      with _ -> fail st ("bad character reference &" ^ name ^ ";")
                    in
                    if code >= 0 && code < 0x80 then String.make 1 (Char.chr code)
                    else if code < 0 then
                      fail st ("bad character reference &" ^ name ^ ";")
                    else fail st "non-ASCII character references are not supported"
                  else fail st ("unknown entity &" ^ name ^ ";")
            in
            Buffer.add_string buf c;
            i := j + 1
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  end

let read_attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected quoted attribute value";
  advance st;
  let start = st.pos in
  while (not (eof st)) && peek st <> quote do
    advance st
  done;
  if eof st then fail st "unterminated attribute value";
  let raw = String.sub st.src start (st.pos - start) in
  advance st;
  decode_entities st raw

let skip_comment st =
  expect st "<!--";
  let rec go () =
    if eof st then fail st "unterminated comment"
    else if looking_at st "-->" then expect st "-->"
    else begin
      advance st;
      go ()
    end
  in
  go ()

let skip_prolog st =
  if looking_at st "<?xml" then begin
    match
      let rec find i =
        if i + 1 >= String.length st.src then None
        else if st.src.[i] = '?' && st.src.[i + 1] = '>' then Some i
        else find (i + 1)
      in
      find st.pos
    with
    | None -> fail st "unterminated XML prolog"
    | Some i -> st.pos <- i + 2
  end

let rec skip_misc st =
  skip_space st;
  if looking_at st "<!--" then begin
    skip_comment st;
    skip_misc st
  end

let rec parse_element st =
  expect st "<";
  let tag = read_name st in
  let attrs = parse_attrs st [] in
  skip_space st;
  if looking_at st "/>" then begin
    expect st "/>";
    Element (tag, List.rev attrs, [])
  end
  else begin
    expect st ">";
    let children = parse_children st tag [] in
    Element (tag, List.rev attrs, children)
  end

and parse_attrs st acc =
  skip_space st;
  if eof st then fail st "unterminated start tag"
  else if looking_at st ">" || looking_at st "/>" then acc
  else begin
    let name = read_name st in
    skip_space st;
    expect st "=";
    skip_space st;
    let value = read_attr_value st in
    parse_attrs st ((name, value) :: acc)
  end

and parse_children st tag acc =
  if eof st then fail st (Printf.sprintf "unterminated element <%s>" tag)
  else if looking_at st "</" then begin
    expect st "</";
    let close = read_name st in
    if close <> tag then
      fail st (Printf.sprintf "mismatched closing tag </%s> for <%s>" close tag);
    skip_space st;
    expect st ">";
    List.rev acc
  end
  else if looking_at st "<!--" then begin
    skip_comment st;
    parse_children st tag acc
  end
  else if looking_at st "<![CDATA[" then begin
    expect st "<![CDATA[";
    let start = st.pos in
    let rec go () =
      if eof st then fail st "unterminated CDATA section"
      else if looking_at st "]]>" then begin
        let text = String.sub st.src start (st.pos - start) in
        expect st "]]>";
        text
      end
      else begin
        advance st;
        go ()
      end
    in
    let text = go () in
    parse_children st tag (Text text :: acc)
  end
  else if looking_at st "<" then begin
    let child = parse_element st in
    parse_children st tag (child :: acc)
  end
  else begin
    let start = st.pos in
    while (not (eof st)) && peek st <> '<' do
      advance st
    done;
    let raw = String.sub st.src start (st.pos - start) in
    let text = decode_entities st raw in
    if String.for_all is_space text then parse_children st tag acc
    else parse_children st tag (Text text :: acc)
  end

(** [parse_string s] parses one XML document and returns its root
    element.  @raise Parse_error on malformed input. *)
let parse_string s =
  let st = { src = s; pos = 0 } in
  skip_space st;
  skip_prolog st;
  skip_misc st;
  if not (looking_at st "<") then fail st "expected a root element";
  let root = parse_element st in
  skip_misc st;
  if not (eof st) then fail st "trailing content after the root element";
  root

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

(** [tag e] is the element name of [e].  @raise Invalid_argument on a
    text node. *)
let tag = function
  | Element (t, _, _) -> t
  | Text _ -> invalid_arg "Xml.tag: text node"

(** [attr e name] looks up attribute [name] on element [e]. *)
let attr e name =
  match e with
  | Element (_, attrs, _) -> List.assoc_opt name attrs
  | Text _ -> None

(** [attr_dflt e name ~default] is [attr] with a fallback value. *)
let attr_dflt e name ~default =
  match attr e name with Some v -> v | None -> default

(** [children e] is the list of child *elements* of [e] (text nodes are
    skipped). *)
let children = function
  | Element (_, _, cs) ->
      List.filter (function Element _ -> true | Text _ -> false) cs
  | Text _ -> []

(** [children_named e name] is the child elements of [e] whose tag is
    [name]. *)
let children_named e name =
  List.filter (fun c -> tag c = name) (children e)

(** [descendants_named e name] walks the whole subtree (excluding [e]
    itself) collecting elements tagged [name], in document order. *)
let descendants_named e name =
  let rec go acc e =
    List.fold_left
      (fun acc c ->
        let acc = if tag c = name then c :: acc else acc in
        go acc c)
      acc (children e)
  in
  List.rev (go [] e)

(** [text e] concatenates the direct text children of [e]. *)
let text = function
  | Element (_, _, cs) ->
      String.concat "" (List.filter_map (function Text t -> Some t | Element _ -> None) cs)
  | Text t -> t

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* [s] with the five predefined entities escaped, written to [buf] *)
let add_escaped buf s =
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '&' -> Buffer.add_string buf "&amp;"
    | '<' -> Buffer.add_string buf "&lt;"
    | '>' -> Buffer.add_string buf "&gt;"
    | '"' -> Buffer.add_string buf "&quot;"
    | '\'' -> Buffer.add_string buf "&apos;"
    | c -> Buffer.add_char buf c
  done

(** [to_string ?indent ?prolog e] serialises [e] after [prolog]
    (default empty); [indent] (default 2) controls per-level
    indentation.  [parse_string (to_string e)] returns a tree equal to
    [e] up to insignificant whitespace. *)
let to_string ?(indent = 2) ?(prolog = "") e =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf prolog;
  let pad level =
    for _ = 1 to level * indent do
      Buffer.add_char buf ' '
    done
  in
  let attr (k, v) =
    Buffer.add_char buf ' ';
    Buffer.add_string buf k;
    Buffer.add_string buf "=\"";
    add_escaped buf v;
    Buffer.add_char buf '"'
  in
  let rec go level = function
    | Text t ->
        pad level;
        add_escaped buf t;
        Buffer.add_char buf '\n'
    | Element (tag, attrs, kids) ->
        pad level;
        Buffer.add_char buf '<';
        Buffer.add_string buf tag;
        List.iter attr attrs;
        if kids = [] then Buffer.add_string buf "/>\n"
        else begin
          Buffer.add_string buf ">\n";
          List.iter (go (level + 1)) kids;
          pad level;
          Buffer.add_string buf "</";
          Buffer.add_string buf tag;
          Buffer.add_string buf ">\n"
        end
  in
  go 0 e;
  Buffer.contents buf

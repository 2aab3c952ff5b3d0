(** Pretty-printing of µJimple programs in the textual format.

    Output from this module parses back with {!Parser} (round-trip
    tested), and is also how Figure 1's dummy-main control-flow graph
    is rendered for inspection. *)

open Jclass

let pp_body buf (b : Body.t) =
  (* emit labels for every branch target *)
  let is_target = Array.make (Body.length b) false in
  Body.iter b (fun s ->
      match s.Stmt.s_kind with
      | Stmt.If (_, t) -> is_target.(t) <- true
      | Stmt.Goto t -> is_target.(t) <- true
      | _ -> ());
  let label i = Printf.sprintf "L%d" i in
  let declared =
    List.filter
      (fun (l : Stmt.local) -> l.Stmt.l_name <> "this")
      b.Body.locals
  in
  List.iter
    (fun (l : Stmt.local) ->
      Buffer.add_string buf
        (Printf.sprintf "    local %s : %s;\n" l.Stmt.l_name
           (Types.string_of_typ l.Stmt.l_type)))
    declared;
  Body.iter b (fun s ->
      let i = s.Stmt.s_idx in
      if is_target.(i) then Buffer.add_string buf (Printf.sprintf "   %s:\n" (label i));
      let line =
        match s.Stmt.s_kind with
        | Stmt.If (c, t) ->
            Printf.sprintf "if %s goto %s" (Stmt.string_of_cond c) (label t)
        | Stmt.Goto t -> Printf.sprintf "goto %s" (label t)
        | k -> Stmt.string_of_kind k
      in
      let tag =
        match s.Stmt.s_tag with
        | Some t -> Printf.sprintf " @%S" t
        | None -> ""
      in
      Buffer.add_string buf (Printf.sprintf "    %s%s;\n" line tag))

let pp_method buf (m : jmethod) =
  let sig_ = m.jm_sig in
  let mods =
    (if m.jm_static then "static " else "")
    ^ (if m.jm_abstract then "abstract " else "")
    ^ if m.jm_native then "native " else ""
  in
  Buffer.add_string buf
    (Printf.sprintf "  %smethod %s %s(%s)" mods
       (Types.string_of_typ sig_.Types.m_ret)
       sig_.Types.m_name
       (String.concat ", " (List.map Types.string_of_typ sig_.Types.m_params)));
  match m.jm_body with
  | None -> Buffer.add_string buf ";\n"
  | Some b ->
      Buffer.add_string buf " {\n";
      pp_body buf b;
      Buffer.add_string buf "  }\n"

(** [class_to_string c] renders a full class declaration. *)
let class_to_string (c : Jclass.t) =
  let buf = Buffer.create 1024 in
  let kw = if c.c_is_interface then "interface" else "class" in
  Buffer.add_string buf (Printf.sprintf "%s %s" kw c.c_name);
  (match c.c_super with
  | Some s when s <> Types.object_class ->
      Buffer.add_string buf (" extends " ^ s)
  | _ -> ());
  if c.c_interfaces <> [] then
    Buffer.add_string buf (" implements " ^ String.concat ", " c.c_interfaces);
  Buffer.add_string buf " {\n";
  List.iter
    (fun (f : Types.field_sig) ->
      Buffer.add_string buf
        (Printf.sprintf "  field %s : %s;\n" f.Types.f_name
           (Types.string_of_typ f.Types.f_type)))
    c.c_fields;
  List.iter (fun m -> pp_method buf m) c.c_methods;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(** [body_to_string b] renders one body (no header). *)
let body_to_string b =
  let buf = Buffer.create 256 in
  pp_body buf b;
  Buffer.contents buf

(** [cfg_to_string b] renders the control-flow graph of [b] as
    [idx: stmt  -> succs] lines — the format used to display Figure 1's
    dummy-main CFG. *)
let cfg_to_string (b : Body.t) =
  let buf = Buffer.create 256 in
  Body.iter b (fun s ->
      let succs = Body.succs b s.Stmt.s_idx in
      Buffer.add_string buf
        (Printf.sprintf "%3d: %-60s -> [%s]\n" s.Stmt.s_idx
           (Stmt.string_of_kind s.Stmt.s_kind)
           (String.concat "; " (List.map string_of_int succs))));
  Buffer.contents buf

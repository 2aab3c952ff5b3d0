(** Plain-text table rendering.

    The evaluation harness reproduces the paper's tables (Table 1,
    Table 2) on stdout; this module renders aligned ASCII tables with
    optional separator rows, in the style of the paper's layout. *)

type cell = string

type row =
  | Row of cell list      (** an ordinary data row *)
  | Sep                   (** a horizontal separator *)
  | Section of string     (** a full-width section header (e.g. a
                              DroidBench category such as "Callbacks") *)

type t = { header : cell list; rows : row list }

(** [make ~header rows] builds a table; [header] gives the column
    titles and fixes the column count. *)
let make ~header rows = { header; rows }

let width_of t =
  let ncols = List.length t.header in
  let widths = Array.make ncols 0 in
  let feed cells =
    List.iteri
      (fun i c ->
        if i < ncols then widths.(i) <- max widths.(i) (String.length c))
      cells
  in
  feed t.header;
  List.iter (function Row cells -> feed cells | Sep | Section _ -> ()) t.rows;
  widths

let pad s w = s ^ String.make (max 0 (w - String.length s)) ' '

(** [render t] renders [t] to a string, one line per row, columns
    separated by two spaces, with a separator under the header. *)
let render t =
  let widths = width_of t in
  let total =
    Array.fold_left ( + ) 0 widths + (2 * max 0 (Array.length widths - 1))
  in
  let buf = Buffer.create 1024 in
  let line cells =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "  ";
        if i < Array.length widths then Buffer.add_string buf (pad c widths.(i)))
      cells;
    (* trim trailing padding *)
    let s = Buffer.contents buf in
    Buffer.clear buf;
    let s =
      let n = ref (String.length s) in
      while !n > 0 && s.[!n - 1] = ' ' do decr n done;
      String.sub s 0 !n
    in
    s
  in
  let out = Buffer.create 4096 in
  Buffer.add_string out (line t.header);
  Buffer.add_char out '\n';
  Buffer.add_string out (String.make total '-');
  Buffer.add_char out '\n';
  List.iter
    (fun r ->
      (match r with
      | Row cells -> Buffer.add_string out (line cells)
      | Sep -> Buffer.add_string out (String.make total '-')
      | Section s ->
          let tag = "== " ^ s ^ " " in
          Buffer.add_string out
            (tag ^ String.make (max 0 (total - String.length tag)) '='));
      Buffer.add_char out '\n')
    t.rows;
  Buffer.contents out

(** [pct num den] formats the ratio as a percentage with no decimals,
    matching the paper's "93%" style; returns ["n/a"] when [den = 0]. *)
let pct num den =
  if den = 0 then "n/a"
  else Printf.sprintf "%.0f%%" (100.0 *. float_of_int num /. float_of_int den)

(** [f_measure p r] is the harmonic mean [2pr/(p+r)] of precision [p]
    and recall [r], as used in Table 1's bottom line. *)
let f_measure p r = if p +. r = 0.0 then 0.0 else 2.0 *. p *. r /. (p +. r)

(** Simulated commercial comparators (Section 6.1).

    Genuinely simpler analyses on the textbook forward-only IFDS
    solver, whose structural weaknesses reproduce the per-category
    failures Table 1 attributes to IBM AppScan Source and HP Fortify
    SCA: no lifecycle model (isolated per-method entry points), no
    layout XML; AppScan-like additionally field-insensitive with
    taint-dropping array stores, Fortify-like field-sensitive with a
    flow-insensitive global static-field model and static-initialiser
    entry points (the "by chance" lifecycle finds). *)

type opts = {
  name : string;
  field_sensitive : bool;
  whole_array : bool;  (** false: taint dies at array stores *)
  global_statics : bool;  (** Fortify's flow-insensitive static model *)
  param_sources : bool;
  aggressive_sinks : bool;  (** adds [Activity.setResult] as a sink *)
  clinit_entries : bool;
  max_access_path : int;
}

val run_appscan : Fd_frontend.Apk.t -> (string option * string option) list
val run_fortify : Fd_frontend.Apk.t -> (string option * string option) list

(** On-disk backend of the persistent cross-app summary store
    (DESIGN.md §13).

    Content-addressed layout, one self-describing entry file per
    (config digest × method digest); damaged entries degrade to misses
    with diagnostics, unwritable directories degrade to read-only.
    Linking this library and calling {!install} is what makes
    [--summary-store DIR] effective — [fd_core] alone ships no
    backend. *)

val install : unit -> unit
(** register the file backend with [Fd_core.Summary.provider];
    idempotent *)

val drain_diags : unit -> Fd_resilience.Diag.t list
(** collect (and clear) the store anomalies recorded so far —
    corrupt/truncated/mismatched entries, failed writes *)

(** {1 Maintenance} (the [flowdroid_store] CLI) *)

type entry_info = {
  ei_path : string;
  ei_config : string;  (** config digest the entry is filed under *)
  ei_method : string;  (** method digest (file name) *)
  ei_bytes : int;
  ei_mtime : float;
}

val scan : string -> entry_info list
(** every entry file under a store directory, across config digests *)

val verify_entry : entry_info -> (unit, string) result
(** full re-validation: header framing, digest match, checksum, JSON *)

val gc : string -> max_bytes:int -> int * int
(** evict least-recently-used entries until the store fits;
    [(deleted, freed_bytes)].  Candidates are ordered by (mtime, path)
    so eviction is deterministic regardless of directory enumeration
    order — concurrent shards keep the same survivors. *)

(** Persistent, content-addressed, crash-safe artifact cache for the
    experiment lab.

    Entries live one-per-file under a cache directory, named by the MD5
    digest of a caller-supplied key string (bench name, binary kind,
    input, scale, machine-configuration digest, …). Values are stored
    with [Marshal] between a versioned header and an integrity footer
    recording the payload's MD5 and byte length:

    - bumping the format version turns every existing entry into a miss
      (the stale file is deleted on the way, never deserialized) — the
      invalidation story when the simulator/compiler change what the
      cached values mean;
    - a corrupt or truncated entry (torn write, bit flip, short read)
      fails the footer check {e before} any payload byte is
      deserialized; the file is moved to [<dir>/quarantine/] for
      inspection and the lookup degrades to a miss, so the value is
      transparently recomputed.

    Writes go through a uniquely named temp file (pid + process-global
    counter) and an atomic [rename], so crashed or concurrent writers —
    including two domains of one process racing on the same key — can at
    worst waste work: readers only ever observe a complete entry.

    Concurrent processes sharing a cache directory compute each missing
    entry once: {!single_flight} serializes its computation under a
    per-entry lease (an fcntl lock on [<entry>.bin.lease]), and a
    process that finds the lease held waits, then reads the entry the
    holder stored.

    The cache also hosts a small append-only {e journal} of completed
    job keys ({!journal_append}/{!journal_load}) that lets an
    interrupted batch resume and skip finished work; lines are
    version-stamped and checksummed like entries, and a line torn by a
    crash is skipped on load and newline-terminated by the next append.

    Chaos-test injection sites: [cache.write.torn],
    [cache.write.corrupt], [cache.journal.torn]
    (see {!Wish_util.Faultpoint}). *)

type t

(** Current on-disk format version. Bump when the meaning or layout of
    cached values changes. *)
val format_version : int

(** Default cache directory ["_wishcache"], overridable with the
    [WISH_CACHE_DIR] environment variable. *)
val default_dir : unit -> string

(** [create ?dir ?version ()] — open (and lazily create) a cache rooted
    at [dir]. [version] defaults to {!format_version}; passing another
    value is mainly for tests of the invalidation path. *)
val create : ?dir:string -> ?version:int -> unit -> t

val dir : t -> string

(** [<dir>/quarantine] — where corrupt entries are moved on detection. *)
val quarantine_dir : t -> string

(** [find t ~kind ~key] — look up the value stored under [(kind, key)].
    Returns [None] (after evicting or quarantining the file) for
    stale-version, torn, or checksum-failing entries. Unsafe in the
    [Marshal] sense: the caller must read back the same type it stored,
    which the version stamp plus content-addressed keys enforce in
    practice. *)
val find : t -> kind:string -> key:string -> 'a option

(** [store t ~kind ~key v] — persist [v] under [(kind, key)],
    overwriting any previous entry. I/O errors are swallowed: a cache
    that cannot write behaves like a cache that forgets. *)
val store : t -> kind:string -> key:string -> 'a -> unit

(** How {!single_flight} obtained its value. *)
type origin =
  | Computed  (** this call ran the thunk (and stored its value) *)
  | Found  (** the entry was stored by the time the lease was taken *)
  | Found_after_wait  (** stored by another process while this one waited on its lease *)

(** [single_flight t ~kind ~key ?on_wait f] — the entry under
    [(kind, key)], computed at most once across processes. It takes an
    exclusive lock on the lease file [<entry>.bin.lease], calling
    [on_wait] first if another process holds it, then looks the entry
    up again; only if it is still missing does it run [f], {!store} its
    value and return it. The lease is unlinked and closed on every exit
    path, exceptions from [f] included.

    Call it after a {!find} miss. The contract:
    - the lock is released by the kernel when its holder dies, so a
      killed holder never blocks a waiter, which then computes the
      value itself; no lease is ever broken by hand;
    - if the lease cannot be opened or locked, [f] runs and its value
      is stored without one, as {!store} swallows I/O errors;
    - fcntl locks belong to processes, so two domains of one process do
      not exclude each other on a key. The Lab is safe because a batch
      never runs one key twice;
    - [f] must not take another lease;
    - a waiter blocks for as long as the holder computes. In the Lab
      that time counts toward a job's [--timeout], and the retry then
      reads the stored entry. *)
val single_flight :
  t -> kind:string -> key:string -> ?on_wait:(unit -> unit) -> (unit -> 'a) -> 'a * origin

(** Remove every entry (the directory itself is kept). Also removes the
    journal and any quarantined files. *)
val clear : t -> unit

(** [digest_of v] — hex MD5 of [v]'s marshalled bytes; used to fold
    structured values (e.g. {!Wish_sim.Config.t}) into key strings.
    Marshalled without sharing, so structurally equal values digest
    equal however they were built. [v] must be acyclic. *)
val digest_of : 'a -> string

(** {1 Completion journal} *)

(** [<dir>/journal.log]. *)
val journal_path : t -> string

(** Append a completed-job key (version-stamped, crash-tolerant). *)
val journal_append : t -> string -> unit

(** The set of journaled keys written under the current format version;
    torn and stale lines are skipped. *)
val journal_load : t -> (string, unit) Hashtbl.t

(** Delete the journal. *)
val journal_clear : t -> unit

(** {1 Maintenance} *)

(** Integrity verdict for one on-disk entry ({!scan}/{!prune}). *)
type status =
  | Entry_ok
  | Entry_stale of int  (** written by this other format version *)
  | Entry_corrupt of string  (** human-readable reason *)

(** [scan t] — classify every entry file (path relative to the root,
    sorted) by header and footer checks alone; nothing is deserialized
    and nothing on disk is modified. *)
val scan : t -> (string * status) list

type verify_report = {
  v_entries : (string * status) list;  (** the {!scan}, pre-quarantine *)
  v_ok : int;
  v_stale : int;  (** reported only — {!prune} owns their eviction *)
  v_quarantined : int;  (** corrupt entries moved to the quarantine *)
}

(** [verify t] — {!scan}, then immediately quarantine every corrupt
    entry (stale-format entries are left in place). The health check
    behind [experiments cache verify], whose exit code gates CI on
    [v_quarantined = 0]. *)
val verify : t -> verify_report

type prune_report = {
  kept : int;
  evicted_stale : int;
  evicted_retired : int;  (** entries of a {!retired_kinds} kind, whatever their status *)
  quarantined : int;
  swept_tmp : int;  (** temp files of {!store} writers that died before renaming *)
  swept_leases : int;  (** lease files nobody holds (their holder died unwaited-for) *)
}

(** Kind directories no current writer produces (["trace"]); {!prune}
    evicts every entry under them. *)
val retired_kinds : string list

(** [prune t] — {!scan}, then delete every entry of a {!retired_kinds}
    kind, delete stale-version entries, and move corrupt ones to the
    quarantine. It also sweeps debris killed processes leave: temp files
    whose writing pid is gone, and lease files it can lock (so no live
    process holds them). Locks belong to processes, so do not prune from
    a process that is itself running leased jobs on this cache. *)
val prune : t -> prune_report

(** Occupancy snapshot for [experiments cache stats] — what concurrent
    runs sharing this directory read from. Reads only headers and file
    sizes; nothing on disk is modified, verified, or deserialized. *)
type stats = {
  st_entries : int;  (** entry files under every kind directory *)
  st_bytes : int;  (** their total size on disk *)
  st_by_version : (int * int * int) list;
      (** (format version, entries, bytes), newest version first *)
  st_unrecognized : int;  (** entries whose header did not parse *)
  st_quarantined : int;  (** files sitting in [quarantine/] *)
  st_journal_keys : int;  (** completed-job keys loadable from the journal *)
}

val stats : t -> stats

(** Write-ahead-log writer.

    One commit path serves every mode. Each record joins one pending FIFO
    with a ticket; a {e leader} — whichever caller finds no round in
    progress; no dedicated domain is spawned, so the scheme composes with
    the maintenance scheduler's pool and simulated environments — takes
    the pending records, issues {e one} write (and, when the round is
    durable, {e one} fsync) through the env, and publishes two
    watermarks: the highest ticket handed to the env, and the highest
    ticket made durable. Only the leader touches the file. The modes are
    policies for that round:

    - [Async] (the common configuration, paper §2.3/§4): [append] queues
      the record — "a write only queues the request for logging" — and,
      unless a leader is already at work, leads a round with no window
      and no fsync. It never waits on anyone else's IO, so writes
      proceed at memory speed and a handful of recent writes may be lost
      on a crash.
    - [Group]: every [append] is durable before returning, and the
      write+fsync is leader-batched (RocksDB-style group commit):
      appenders park on a condition variable until their ticket is
      durable or they find no leader and lead a round themselves. The
      leader waits in an accumulation window until the committers the
      previous round predicts have boarded (at most [max_delay_us]),
      takes up to [max_batch] records, writes and fsyncs them, and wakes
      all riders; leftover records elect the next leader immediately.
      The window's early close uses a self-pipe, created only when a
      window can open ([max_batch > 1] and [max_delay_us > 0]) and
      closed by {!close} or {!abandon}. Per-write durability is
      [Group { max_batch = 1; max_delay_us = 0 }]: every append is its
      own round, with no window and no pipe.

    {!flush} leads durable rounds, with no window and no batch bound,
    until every record queued before it is durable.

    {b Failure model (fsync-gate).} All IO goes through the store's
    {!Clsm_env.Env.t}. The first append or fsync failure {e poisons} the
    writer permanently: the failing operation raises, and every later
    [append]/[flush]/[close] re-raises the original exception instead of
    silently retrying — once an fsync has failed, the durability of
    earlier acknowledged bytes is unknown and no further write may be
    acknowledged on this log. In [Group] mode a failed batch wakes every
    parked rider and each re-raises the original poisoning exception:
    none of the batch's records is acknowledged. [flush] after poisoning
    is idempotent — concurrent or repeated flushers all observe the same
    original exception and never touch the queue or the file again. *)

type t

type group_config = { max_batch : int; max_delay_us : int }
(** Leader accumulation policy. Each round predicts how many committers
    board the next one: its own batch size (closed-loop writers come
    back) plus the records that queued behind it. A leader that finds
    fewer pending than that prediction (capped at [max_batch]) opens an
    accumulation window, and the window closes as soon as the last
    predicted rider boards — the leader blocks on a pipe that rider
    writes to, it neither sleeps blind nor spins — or after
    [max_delay_us] (0 = never open a window). An uncontended writer
    predicts 1 and never pays the window; after a writer departs, one
    window expires and the smaller batch lowers the prediction. *)

type mode = Async | Group of group_config

type observer = {
  on_group_commit : records:int -> unit;
      (** one durable write+fsync covering [records] records just
          completed *)
  on_commit_wait : ns:int -> unit;
      (** one durable [append] was acknowledged after waiting [ns]
          nanoseconds (commit-wait latency, [Group] mode) *)
  on_window : boarded:bool -> unit;
      (** one [Group] accumulation window closed: [boarded] when the
          predicted riders boarded, [false] when [max_delay_us] expired
          first (or the writer shut down) *)
}
(** Stats hooks, injected at {!create} so this layer stays independent of
    the core's stats registry. Callbacks run on the committing caller's
    thread and must be cheap and non-raising. *)

val create : ?mode:mode -> ?env:Clsm_env.Env.t -> ?observer:observer -> string -> t
(** Open (create/truncate) the log file at the given path.
    Default mode: [Async]; default env: {!Clsm_env.Env.unix}. *)

val append : ?alone:bool -> t -> string -> unit
(** Log one record. Thread-safe. In [Async] mode it never waits on
    another caller's IO: it writes out what is pending only when no
    leader is already doing so. Blocks until durable in [Group] mode. Raises {!Clsm_env.Env.Error} (or the original
    poisoning exception) on IO failure — in [Group] mode the
    record is then {e not} acknowledged.

    [alone] (default [false]) tells the writer that the caller holds a
    lock every other appender needs, so no rider can board until this
    append returns: a [Group] leader then opens no accumulation window,
    which could only expire. *)

val enqueue : t -> string -> unit
(** Queue one record with no durability work or acknowledgement,
    regardless of mode; a later {!flush} makes it durable. Recovery uses
    this to re-log a replayed memtable as one batch instead of paying a
    per-record fsync in durable modes. *)

val flush : t -> unit
(** Make every record queued before the call durable: lead rounds (no
    accumulation window, no batch bound) that write out what is pending
    and [fsync], waiting out a round another caller is leading. A round
    with nothing pending but unsynced bytes only fsyncs; with nothing
    unsynced, [flush] does no IO. Raises on failure and poisons the
    writer; once poisoned, idempotently re-raises the original exception
    without touching the queue or the file. *)

val close : t -> unit
(** {!flush} then close the file, after waiting out a leader still in
    its round. The descriptors (the file's and the window pipe's) are
    always released, but a flush/fsync failure still propagates. *)

val poisoned : t -> bool
(** True once an IO failure has permanently disabled the writer (or
    {!abandon} simulated a crash under it). *)

val path : t -> string
val queued : t -> int
(** Records pending, not yet taken by a round (test/stats). *)

val written_bytes : t -> int
(** Bytes fully appended to the file so far. The prefix
    [0, written_bytes t) consists of whole records with no append in
    flight, so a concurrent reader that stops there (scrub's WAL-tail
    check passes it as [max_bytes] to {!Wal_reader.read_records}) cannot
    observe a half-written record. Monotonic; reading it races only
    benignly (a stale value under-reports). *)

val abandon : t -> unit
(** Close the file without writing out the queue or syncing — test hook that
    leaves the file exactly as a crash would. Poisons the writer with
    {!Clsm_env.Env.Crashed} and wakes parked group riders, and a leader
    parked in an accumulation window, so in-flight commits raise
    (unacknowledged) at once instead of hanging. A leader already in
    its write is waited out before the descriptors (the file's and the
    window pipe's) are released. Never raises. *)

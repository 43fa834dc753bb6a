(** RCU-like protected global pointer (paper §3.1).

    The paper protects the pointers to the memory components ([Pm], [P'm])
    and the disk component ([Pd]) with an RCU-like mechanism: a reader loads
    the pointer, increments the component's reference counter, and
    re-validates that the pointer has not been switched in between; if it
    has, it releases and retries. Writers (the merge hooks) swap the pointer
    and retire the old component, which is released once the last reader
    drops its reference. The store uses it for [Pd] only, whose release
    frees table files; the memory components are plain atomics, since the
    GC frees them.

    The rule: a cell leaves the box (by {!swap}) before it is retired,
    except through close, which retires the last cell in place. *)

type 'a t

exception Closed
(** Raised by {!acquire} on a box whose cell was retired in place; with
    no payload, raising it allocates nothing. *)

val create : 'a Refcounted.t -> 'a t

val acquire : 'a t -> 'a Refcounted.t
(** Take a validated reference to the current component. The caller must
    eventually call [Refcounted.decr] on the result. Never blocks: by
    the rule above, a cell found retired is either gone from the box, and
    it retries at once, or still in it, and it raises {!Closed}. *)

val peek : 'a t -> 'a Refcounted.t
(** The current component without taking a reference. The payload may be
    released at any moment; use only where an external lock (e.g. the
    shared-exclusive lock held in exclusive mode) already pins it. *)

val swap : 'a t -> 'a Refcounted.t -> 'a Refcounted.t
(** Install a new component and return the previous one (not retired;
    the caller decides when to [Refcounted.retire] it). *)

val with_ref : 'a t -> ('a -> 'b) -> 'b
(** [with_ref t f] acquires, applies [f] to the payload, and releases. *)

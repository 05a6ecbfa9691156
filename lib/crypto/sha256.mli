(** SHA-256 (FIPS 180-4).

    Block compression runs in a C kernel: SHA-NI instructions where CPUID
    reports them, portable C elsewhere, chosen once when the module
    initialises. Buffering and padding are OCaml. The test suite checks both
    kernels against a pure-OCaml reference and the FIPS 180-4 known-answer
    vectors. *)

type ctx
(** Streaming hash state. Not thread-safe; one context per stream. *)

val init : unit -> ctx
(** Fresh hash state. *)

val feed_string : ctx -> string -> unit
(** Absorb [s] into the state. Raises [Invalid_argument] after
    {!finalize}. *)

val feed_bytes : ctx -> Bytes.t -> int -> int -> unit
(** [feed_bytes ctx b off len] absorbs the slice [b.[off .. off+len-1]].
    Raises [Invalid_argument] when the range escapes [b], or after
    {!finalize}. *)

val feed_sub : ctx -> string -> int -> int -> unit
(** [feed_sub ctx s off len] absorbs [s.[off .. off+len-1]] without copying
    it out first. Raises [Invalid_argument] when the range escapes [s], or
    after {!finalize}. *)

val finalize : ctx -> string
(** Produce the 32-byte raw digest. A context is finalized once: calling
    [finalize] again, or any [feed_*] afterwards, raises
    [Invalid_argument]. *)

val digest_string : string -> string
(** One-shot digest of a string; returns 32 raw bytes. *)

val digest_strings : string list -> string
(** One-shot digest of the concatenation of the parts, without building the
    concatenated string. *)

val digest_bytes : Bytes.t -> int -> int -> string
(** One-shot digest of [b.[off .. off+len-1]] with no intermediate string —
    node identity streams out of encoder buffers through this. Raises
    [Invalid_argument] when the range escapes [b]. *)

val digest_sub : string -> int -> int -> string
(** One-shot digest of a string range, equally copy-free. *)

(**/**)

(* The two compression kernels, reachable one by one for the differential
   test. [blocks_* state b off n] compresses the [n] 64-byte blocks at
   [b.[off ..]] into [state], a 32-byte big-endian chaining value. Both
   raise [Invalid_argument] on a bad range; [blocks_ni] raises [Failure]
   unless [has_sha_ni]. *)

val has_sha_ni : bool
(** CPUID reported the SHA extensions, so the functions above use the
    SHA-NI kernel. *)

val blocks_portable : Bytes.t -> Bytes.t -> int -> int -> unit
val blocks_ni : Bytes.t -> Bytes.t -> int -> int -> unit

(** Deadline-aware, fault-isolated I/O on raw file descriptors
    (DESIGN.md Sec. 15).

    The server's connection I/O in both directions: bounded-wait line
    reads with an idle timeout, a per-frame read deadline and a
    frame-size cap; partial-write-safe framed replies that report a
    severed peer as a value instead of raising.  When the chaos harness
    ({!Absolver_resource.Faults.Net}) is armed, both paths apply its
    seeded decisions — delays, torn writes, mid-frame disconnects — on
    the side that created the reader/writer with [~chaos:true] (the
    server's side in the differential suite, so the reconnecting client
    under test faces the hostile network, not its own stack). *)

type limits = {
  idle_timeout_s : float option;
      (** reclaim a connection after this much inactivity — counted
          from the last byte received or reply written, and suspended
          while a request of this connection is still in flight.
          [None]: never. *)
  read_deadline_s : float option;
      (** a frame, once its first byte arrived, must complete within
          this bound.  [None]: unbounded. *)
  max_frame_bytes : int;
      (** cap on one frame's size; an overrun is reported as
          {!Frame_too_large} before further input is buffered, so
          adversarial input cannot OOM the daemon. *)
}

val default_limits : limits
(** 300 s idle, 30 s per frame, 64 MiB frames. *)

val unlimited : limits
(** No timeouts, no cap — the pre-hardening behaviour, for tests. *)

type event =
  | Line of string  (** one frame, ['\n'] consumed, [CRLF] stripped *)
  | Eof  (** orderly peer close (a torn trailing partial is dropped) *)
  | Idle_timeout
  | Read_deadline
  | Frame_too_large
  | Stopped  (** the [should_stop] condition became true *)
  | Io_error of string

type reader

val reader :
  ?limits:limits ->
  ?chaos:bool ->
  ?should_stop:(unit -> bool) ->
  ?busy:(unit -> bool) ->
  Unix.file_descr ->
  reader
(** A buffered line reader over [fd].  [should_stop] is polled at least
    every 250 ms while blocked (server shutdown, peer declared dead by
    the write path); [busy] suspends the idle timeout while this
    connection has requests in flight. *)

val read_line : reader -> event
(** Block (in bounded slices) until one complete line, a timeout, EOF
    or an error.  Never raises. *)

val touch : reader -> unit
(** Record activity (a reply written), resetting the idle clock. *)

type write_error = Peer_closed | Write_error of string

val write_all : ?chaos:bool -> Unix.file_descr -> string -> (unit, write_error) result
(** Write the whole string, riding out short writes, [EINTR] and
    [EAGAIN].  [EPIPE]/[ECONNRESET] (the peer vanished — SIGPIPE is
    ignored process-wide by the server) is [Error Peer_closed].  Never
    raises. *)

val sever : Unix.file_descr -> unit
(** [shutdown] both directions, ignoring errors; never closes (the fd's
    owner does), so chaos cannot introduce double-close races. *)

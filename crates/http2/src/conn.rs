//! The sans-IO HTTP/2 connection state machine.
//!
//! Following the smoltcp philosophy, [`Connection`] performs no IO: callers
//! feed received bytes in with [`Connection::recv`], drain wire bytes out
//! with [`Connection::take_output`], and consume protocol [`Event`]s with
//! [`Connection::poll_event`]. The same state machine therefore runs over
//! real TCP sockets (see `vroom-server`'s wire module), in-memory buffers
//! (tests), or not at all (the discrete-event simulator uses the header
//! types only).

use crate::error::{ConnectionError, ErrorCode};
use crate::frame::{self, Frame, FrameCodec, PrioritySpec};
use crate::headers::{Request, Response};
use crate::settings::{Settings, DEFAULT_INITIAL_WINDOW_SIZE};
use crate::stream::{Stream, StreamState};
use std::collections::{HashMap, VecDeque};
use vroom_hpack::HeaderField;

/// The HTTP/2 connection preface sent by clients (RFC 7540 §3.5).
pub const PREFACE: &[u8] = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";

/// Which side of the connection we are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Initiates streams with odd ids; receives pushes.
    Client,
    /// Initiates pushes with even ids.
    Server,
}

/// Protocol events surfaced to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A complete header block arrived (request on servers, response on
    /// clients, or trailers).
    Headers {
        /// Stream carrying the block.
        stream_id: u32,
        /// Decoded fields, pseudo-headers first.
        fields: Vec<HeaderField>,
        /// Whether the peer half-closed the stream.
        end_stream: bool,
    },
    /// A chunk of body data arrived.
    Data {
        /// Stream carrying the data.
        stream_id: u32,
        /// The bytes (padding already stripped).
        data: Vec<u8>,
        /// Whether the peer half-closed the stream.
        end_stream: bool,
    },
    /// The peer promised a push (clients only).
    PushPromise {
        /// Stream the promise rode on.
        stream_id: u32,
        /// Reserved even-numbered stream for the pushed response.
        promised_stream_id: u32,
        /// Synthesized request fields.
        fields: Vec<HeaderField>,
    },
    /// The peer reset a stream.
    StreamReset {
        /// Stream that died.
        stream_id: u32,
        /// Why.
        code: ErrorCode,
    },
    /// The peer's settings arrived/changed.
    PeerSettings(Settings),
    /// The peer acknowledged our settings.
    SettingsAcked,
    /// The peer answered a PING.
    PingAcked([u8; 8]),
    /// The peer is going away.
    Goaway {
        /// Highest stream id the peer may have processed.
        last_stream_id: u32,
        /// Why.
        code: ErrorCode,
    },
}

/// In-progress header block (HEADERS/PUSH_PROMISE awaiting CONTINUATION).
/// The accumulated fragment bytes live in [`Connection::cont_buf`], which is
/// reused across header blocks.
#[derive(Debug)]
struct ContState {
    stream_id: u32,
    /// `Some(promised_id)` when accumulating a PUSH_PROMISE block.
    promised: Option<u32>,
    end_stream: bool,
}

/// A sans-IO HTTP/2 connection.
pub struct Connection {
    role: Role,
    local: Settings,
    peer: Settings,
    codec: FrameCodec,
    hpack_enc: vroom_hpack::Encoder,
    hpack_dec: vroom_hpack::Decoder,
    /// The incomplete frame the last `recv` ended in, if any. Complete
    /// frames are decoded from the caller's slice and never land here.
    recv_buf: Vec<u8>,
    /// Frames queued for the transport; [`Connection::take_output`] hands
    /// them over.
    out: Vec<u8>,
    /// An empty buffer with capacity, handed back by
    /// [`Connection::recycle_output`]; the next `take_output` makes it `out`.
    spare: Vec<u8>,
    /// Streams not yet closed. A stream is dropped from the map when it
    /// closes; [`Connection::forgotten`] still knows it from the id
    /// high-water marks below, so a closed stream costs no memory.
    streams: HashMap<u32, Stream>,
    next_local_stream: u32,
    /// Highest stream id the peer opened (servers), refused ones included.
    highest_peer_stream: u32,
    /// Highest stream id the peer promised (clients).
    highest_promised: u32,
    /// Peer-initiated streams in `streams`, checked against our
    /// `max_concurrent_streams`.
    open_peer_streams: u32,
    conn_send: crate::flow::FlowWindow,
    conn_recv: crate::flow::FlowWindow,
    events: VecDeque<Event>,
    preface_remaining: usize,
    cont: Option<ContState>,
    /// Reused accumulator for header blocks split across CONTINUATION
    /// frames — no per-block allocation once warmed up. Bounded by
    /// `header_block_limit`.
    cont_buf: Vec<u8>,
    /// The most octets an open header block may buffer: our
    /// `max_header_list_size` (the HPACK decoder's limit when unset).
    header_block_limit: usize,
    /// Reused HPACK encode scratch: header blocks are encoded here, then
    /// framed directly into `out` from slices of this buffer.
    enc_buf: Vec<u8>,
    local_settings_acked: bool,
    goaway_sent: bool,
    goaway_received: bool,
}

impl Connection {
    /// A client connection; queues the preface and our SETTINGS.
    pub fn client(local: Settings) -> Self {
        let mut c = Self::new(Role::Client, local);
        c.out.extend_from_slice(PREFACE);
        c.queue_settings();
        c
    }

    /// A server connection; expects the preface, queues our SETTINGS.
    pub fn server(local: Settings) -> Self {
        let mut c = Self::new(Role::Server, local);
        c.preface_remaining = PREFACE.len();
        c.queue_settings();
        c
    }

    fn new(role: Role, local: Settings) -> Self {
        let codec = FrameCodec {
            max_frame_size: local.max_frame_size,
        };
        let header_block_limit = local
            .max_header_list_size
            .map_or(vroom_hpack::decoder::DEFAULT_MAX_HEADER_LIST_SIZE, |n| {
                n as usize
            });
        let hpack_dec = vroom_hpack::Decoder::new()
            .with_max_table_size(local.header_table_size as usize)
            .with_max_header_list_size(header_block_limit);
        Connection {
            role,
            peer: Settings::default(),
            codec,
            hpack_enc: vroom_hpack::Encoder::new(),
            hpack_dec,
            recv_buf: Vec::new(),
            out: Vec::new(),
            spare: Vec::new(),
            streams: HashMap::new(),
            next_local_stream: if role == Role::Client { 1 } else { 2 },
            highest_peer_stream: 0,
            highest_promised: 0,
            open_peer_streams: 0,
            conn_send: crate::flow::FlowWindow::new(DEFAULT_INITIAL_WINDOW_SIZE),
            conn_recv: crate::flow::FlowWindow::new(connection_window(&local)),
            events: VecDeque::new(),
            preface_remaining: 0,
            cont: None,
            cont_buf: Vec::new(),
            header_block_limit,
            enc_buf: Vec::new(),
            local_settings_acked: false,
            goaway_sent: false,
            goaway_received: false,
            local,
        }
    }

    /// Queue our SETTINGS, then the stream-0 WINDOW_UPDATE that opens the
    /// connection window to match the announced stream window. No setting
    /// can raise the connection window past the RFC's 65,535 bytes
    /// (§6.9.2), so without the update every stream would share 64 KiB of
    /// credit however large its own window.
    fn queue_settings(&mut self) {
        Frame::Settings {
            ack: false,
            entries: self.local.to_entries(),
        }
        .encode(&mut self.out);
        let increment = self
            .local
            .initial_window_size
            .saturating_sub(DEFAULT_INITIAL_WINDOW_SIZE);
        if increment > 0 {
            Frame::WindowUpdate {
                stream_id: 0,
                increment,
            }
            .encode(&mut self.out);
        }
    }

    /// Whether the peer has acknowledged our SETTINGS.
    pub fn settings_acked(&self) -> bool {
        self.local_settings_acked
    }

    /// State of a stream, if known. A stream that closed reads `Closed`.
    pub fn stream_state(&self, id: u32) -> Option<StreamState> {
        match self.streams.get(&id) {
            Some(s) => Some(s.state),
            None => self.forgotten(id).then_some(StreamState::Closed),
        }
    }

    /// The highest stream id the peer has used: opened (servers, refused
    /// ones included) or promised (clients).
    fn peer_high_water(&self) -> u32 {
        match self.role {
            Role::Server => self.highest_peer_stream,
            Role::Client => self.highest_promised,
        }
    }

    /// Whether `id` is a peer stream id the peer has not used yet.
    fn idle_peer_stream(&self, id: u32) -> bool {
        !self.is_local_stream(id) && id > self.peer_high_water()
    }

    /// Whether `id` names a stream that was opened, reserved or refused and
    /// is no longer in the map: it has closed. Each side uses its ids in
    /// increasing order, so every id of a parity at or below that parity's
    /// high-water mark was used.
    fn forgotten(&self, id: u32) -> bool {
        let used = if self.is_local_stream(id) {
            id < self.next_local_stream
        } else {
            id <= self.peer_high_water()
        };
        id != 0 && used && !self.streams.contains_key(&id)
    }

    /// Drop stream `id` from the map if it has closed.
    fn forget_if_closed(&mut self, id: u32) {
        if self
            .streams
            .get(&id)
            .is_some_and(|s| s.state == StreamState::Closed)
        {
            self.streams.remove(&id);
            if !self.is_local_stream(id) {
                self.open_peer_streams -= 1;
            }
        }
    }

    /// The error for a send on stream `id` that is not in the map: the
    /// STREAM_CLOSED error `closed` for a stream that has closed, as for one
    /// the map holds in a state that cannot send, and PROTOCOL_ERROR
    /// `unknown` for an id never used.
    fn missing_stream(
        &self,
        id: u32,
        unknown: &'static str,
        closed: &'static str,
    ) -> ConnectionError {
        if self.forgotten(id) {
            ConnectionError::new(ErrorCode::StreamClosed, closed)
        } else {
            ConnectionError::protocol(unknown)
        }
    }

    /// Insert a new stream; the count of open peer streams follows.
    fn open_stream(&mut self, id: u32, state: StreamState) -> &mut Stream {
        if !self.is_local_stream(id) {
            self.open_peer_streams += 1;
        }
        let s = Stream::new(
            id,
            state,
            self.peer.initial_window_size,
            self.local.initial_window_size,
        );
        self.streams.entry(id).insert_entry(s).into_mut()
    }

    /// Bytes currently sendable on a stream (min of stream and connection
    /// windows); 0 once the stream has closed.
    pub fn send_capacity(&self, stream_id: u32) -> u32 {
        let stream = self
            .streams
            .get(&stream_id)
            .map(|s| s.send_window.sendable())
            .unwrap_or(0);
        stream.min(self.conn_send.sendable())
    }

    /// Drain bytes to write to the transport. The frames that follow go
    /// into the buffer last handed to
    /// [`recycle_output`](Self::recycle_output), if any.
    pub fn take_output(&mut self) -> Vec<u8> {
        if self.out.is_empty() {
            return Vec::new();
        }
        let next = std::mem::take(&mut self.spare);
        std::mem::replace(&mut self.out, next)
    }

    /// Hand back a buffer `take_output` returned, once its bytes are
    /// written: it is cleared and kept for the output that follows, at once
    /// if nothing is queued yet. A caller that recycles each flush's buffer
    /// keeps reusing at most two allocations, instead of growing a fresh
    /// buffer from empty after every flush.
    pub fn recycle_output(&mut self, mut spent: Vec<u8>) {
        spent.clear();
        let slot = if self.out.is_empty() {
            &mut self.out
        } else {
            &mut self.spare
        };
        if spent.capacity() > slot.capacity() {
            *slot = spent;
        }
    }

    /// Pop the next protocol event.
    pub fn poll_event(&mut self) -> Option<Event> {
        self.events.pop_front()
    }

    /// Feed received transport bytes. Frames are decoded straight from
    /// `data`; only a frame cut off at its end is copied aside, and the
    /// next call completes that one first. On a connection error, a GOAWAY
    /// is queued in the output buffer and the error returned; the
    /// connection is then unusable except for draining output.
    pub fn recv(&mut self, data: &[u8]) -> Result<(), ConnectionError> {
        let mut rest = data;
        let res = self
            .finish_tail(&mut rest)
            .and_then(|()| self.process(&mut rest));
        match res {
            Ok(()) => {
                self.recv_buf.extend_from_slice(rest);
                Ok(())
            }
            Err(e) => {
                self.queue_goaway(e.code, &e.reason);
                Err(e)
            }
        }
    }

    /// Complete the frame the last `recv` left in `recv_buf` from the front
    /// of `data`: top it up to its 9-octet header, then to the length that
    /// header names, and handle it. `recv_buf` is empty afterwards unless
    /// `data` ran out first.
    fn finish_tail(&mut self, data: &mut &[u8]) -> Result<(), ConnectionError> {
        if self.recv_buf.is_empty() {
            return Ok(());
        }
        loop {
            let need = self
                .codec
                .frame_len(&self.recv_buf)?
                .unwrap_or(frame::HEADER_LEN);
            let missing = need.saturating_sub(self.recv_buf.len());
            if missing == 0 {
                break;
            }
            if data.is_empty() {
                return Ok(());
            }
            let (head, rest) = data.split_at(missing.min(data.len()));
            self.recv_buf.extend_from_slice(head);
            *data = rest;
        }
        let (_, frame) = self.codec.decode(&self.recv_buf)?;
        self.recv_buf.clear();
        match frame {
            Some(frame) => self.handle_frame(frame),
            None => Ok(()),
        }
    }

    /// Consume the preface, then every complete frame, from the front of
    /// `rest`.
    fn process(&mut self, rest: &mut &[u8]) -> Result<(), ConnectionError> {
        if self.preface_remaining > 0 {
            let offset = PREFACE.len() - self.preface_remaining;
            let (got, tail) = rest.split_at(self.preface_remaining.min(rest.len()));
            if PREFACE.get(offset..offset + got.len()) != Some(got) {
                return Err(ConnectionError::protocol("bad connection preface"));
            }
            *rest = tail;
            self.preface_remaining -= got.len();
            if self.preface_remaining > 0 {
                return Ok(());
            }
        }
        loop {
            let (used, frame) = self.codec.decode(rest)?;
            if used == 0 {
                return Ok(());
            }
            *rest = rest.get(used..).unwrap_or_default();
            if let Some(frame) = frame {
                self.handle_frame(frame)?;
            }
        }
    }

    fn handle_frame(&mut self, frame: Frame) -> Result<(), ConnectionError> {
        // While a header block is open, only CONTINUATION on the same stream
        // is legal (RFC 7540 §6.2).
        if let Some(cont) = &self.cont {
            // vroom-lint: allow(protocol-exhaustive) -- rejection guard: every frame except same-stream CONTINUATION is a protocol error here, and future frame types must hit the error arm too
            match &frame {
                Frame::Continuation { stream_id, .. } if *stream_id == cont.stream_id => {}
                _ => {
                    return Err(ConnectionError::protocol(
                        "frame interleaved inside header block",
                    ))
                }
            }
        }
        match frame {
            Frame::Settings { ack: true, .. } => {
                self.local_settings_acked = true;
                self.events.push_back(Event::SettingsAcked);
            }
            Frame::Settings {
                ack: false,
                entries,
            } => {
                let old_initial = self.peer.initial_window_size;
                self.peer.apply(&entries)?;
                // Peer's INITIAL_WINDOW_SIZE change retroactively adjusts all
                // stream *send* windows (§6.9.2).
                if self.peer.initial_window_size != old_initial {
                    for s in self.streams.values_mut() {
                        s.send_window
                            .adjust_initial(old_initial, self.peer.initial_window_size)?;
                    }
                }
                // Peer's decoder table bound constrains our encoder.
                self.hpack_enc
                    .set_max_table_size(self.peer.header_table_size.min(4096) as usize);
                Frame::Settings {
                    ack: true,
                    entries: vec![],
                }
                .encode(&mut self.out);
                self.events.push_back(Event::PeerSettings(self.peer));
            }
            Frame::Ping {
                ack: false,
                payload,
            } => {
                Frame::Ping { ack: true, payload }.encode(&mut self.out);
            }
            Frame::Ping { ack: true, payload } => {
                self.events.push_back(Event::PingAcked(payload));
            }
            Frame::WindowUpdate {
                stream_id: 0,
                increment,
            } => {
                self.conn_send.expand(increment)?;
            }
            Frame::WindowUpdate {
                stream_id,
                increment,
            } => {
                if let Some(s) = self.streams.get_mut(&stream_id) {
                    s.send_window.expand(increment)?;
                }
                // Updates for unknown/closed streams are ignored.
            }
            Frame::Priority { .. } => {
                // Advisory only; the Vroom stack schedules at a higher layer.
            }
            Frame::RstStream { stream_id, code } => {
                if self.idle_peer_stream(stream_id) {
                    return Err(ConnectionError::protocol("RST_STREAM on idle stream"));
                }
                if let Some(s) = self.streams.get_mut(&stream_id) {
                    s.on_reset();
                }
                self.forget_if_closed(stream_id);
                self.events
                    .push_back(Event::StreamReset { stream_id, code });
            }
            Frame::Goaway {
                last_stream_id,
                code,
                ..
            } => {
                self.goaway_received = true;
                self.events.push_back(Event::Goaway {
                    last_stream_id,
                    code,
                });
            }
            Frame::Data {
                stream_id,
                data,
                end_stream,
                pad_len,
            } => {
                self.handle_data(stream_id, data, end_stream, pad_len)?;
            }
            Frame::Headers {
                stream_id,
                fragment,
                end_stream,
                end_headers,
                priority: _,
            } => {
                if end_headers {
                    self.finish_header_block(stream_id, None, end_stream, &fragment)?;
                } else {
                    self.cont_buf.clear();
                    self.buffer_fragment(&fragment)?;
                    self.cont = Some(ContState {
                        stream_id,
                        promised: None,
                        end_stream,
                    });
                }
            }
            Frame::PushPromise {
                stream_id,
                promised_stream_id,
                fragment,
                end_headers,
            } => {
                if self.role != Role::Client {
                    return Err(ConnectionError::protocol("server received PUSH_PROMISE"));
                }
                if !self.local.enable_push {
                    return Err(ConnectionError::protocol("push is disabled"));
                }
                if end_headers {
                    self.finish_header_block(
                        stream_id,
                        Some(promised_stream_id),
                        false,
                        &fragment,
                    )?;
                } else {
                    self.cont_buf.clear();
                    self.buffer_fragment(&fragment)?;
                    self.cont = Some(ContState {
                        stream_id,
                        promised: Some(promised_stream_id),
                        end_stream: false,
                    });
                }
            }
            Frame::Continuation {
                stream_id,
                fragment,
                end_headers,
            } => {
                let Some(cont) = &self.cont else {
                    return Err(ConnectionError::protocol("CONTINUATION without HEADERS"));
                };
                debug_assert_eq!(cont.stream_id, stream_id);
                self.buffer_fragment(&fragment)?;
                if end_headers {
                    if let Some(cont) = self.cont.take() {
                        // Move the accumulator out for the duration of the
                        // call (finish_header_block needs `&mut self`), then
                        // put it back so its capacity is reused.
                        let buf = std::mem::take(&mut self.cont_buf);
                        let res = self.finish_header_block(
                            cont.stream_id,
                            cont.promised,
                            cont.end_stream,
                            &buf,
                        );
                        self.cont_buf = buf;
                        res?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Append a fragment to the open header block. A block that would pass
    /// `header_block_limit` ends the connection with ENHANCE_YOUR_CALM
    /// before it is buffered: an encoder never needs more octets for a
    /// block than the header list it decodes to, and our decoder refuses a
    /// list past that size anyway, so a longer block is a CONTINUATION
    /// flood.
    fn buffer_fragment(&mut self, fragment: &[u8]) -> Result<(), ConnectionError> {
        if self.cont_buf.len() + fragment.len() > self.header_block_limit {
            return Err(ConnectionError::new(
                ErrorCode::EnhanceYourCalm,
                "header block exceeds the header list size limit",
            ));
        }
        self.cont_buf.extend_from_slice(fragment);
        Ok(())
    }

    fn is_local_stream(&self, id: u32) -> bool {
        match self.role {
            Role::Client => id % 2 == 1,
            Role::Server => id.is_multiple_of(2),
        }
    }

    fn handle_data(
        &mut self,
        stream_id: u32,
        data: Vec<u8>,
        end_stream: bool,
        pad_len: u32,
    ) -> Result<(), ConnectionError> {
        let flow_len = data.len() as u32 + pad_len;
        // Padding and data both count against the connection window.
        self.conn_recv.try_consume(flow_len)?;

        let Some(s) = self.streams.get_mut(&stream_id) else {
            if self.idle_peer_stream(stream_id) {
                return Err(ConnectionError::protocol("DATA on idle stream"));
            }
            // Closed-and-forgotten stream: replenish and reset.
            self.replenish_connection();
            self.queue_rst(stream_id, ErrorCode::StreamClosed);
            return Ok(());
        };
        if !s.recv_data_allowed() {
            self.replenish_connection();
            self.queue_rst(stream_id, ErrorCode::StreamClosed);
            return Ok(());
        }
        s.recv_window.try_consume(flow_len)?;
        if end_stream {
            s.on_recv_end_stream()?;
        } else if let Some(increment) = s.recv_window.refill(self.local.initial_window_size) {
            // Half the stream window is spent: restore it so the sender
            // keeps flowing.
            Frame::WindowUpdate {
                stream_id,
                increment,
            }
            .encode(&mut self.out);
        }
        self.replenish_connection();
        self.forget_if_closed(stream_id);
        self.events.push_back(Event::Data {
            stream_id,
            data,
            end_stream,
        });
        Ok(())
    }

    /// Restore the connection's receive window once half of it is spent.
    fn replenish_connection(&mut self) {
        if let Some(increment) = self.conn_recv.refill(connection_window(&self.local)) {
            Frame::WindowUpdate {
                stream_id: 0,
                increment,
            }
            .encode(&mut self.out);
        }
    }

    fn finish_header_block(
        &mut self,
        stream_id: u32,
        promised: Option<u32>,
        end_stream: bool,
        fragment: &[u8],
    ) -> Result<(), ConnectionError> {
        // HPACK state must advance even for streams we will refuse.
        let fields = self.hpack_dec.decode(fragment)?;

        if let Some(promised_id) = promised {
            if promised_id % 2 != 0 || promised_id <= self.highest_promised {
                return Err(ConnectionError::protocol("bad promised stream id"));
            }
            // Reserve the pushed stream (remote).
            self.highest_promised = promised_id;
            self.open_stream(promised_id, StreamState::ReservedRemote);
            self.events.push_back(Event::PushPromise {
                stream_id,
                promised_stream_id: promised_id,
                fields,
            });
            return Ok(());
        }

        if self.forgotten(stream_id) {
            return Err(ConnectionError::new(
                ErrorCode::StreamClosed,
                // vroom-lint: allow(hot-path-alloc) -- cold protocol-error path: renders the message for a rejected peer
                format!("HEADERS on closed stream {stream_id}"),
            ));
        }
        let s = match self.streams.get_mut(&stream_id) {
            Some(s) => s,
            None => {
                if self.is_local_stream(stream_id) {
                    // vroom-lint: allow(hot-path-alloc) -- cold protocol-error path: renders the message for a rejected peer
                    return Err(ConnectionError::protocol(format!(
                        "peer opened stream {stream_id} with our parity"
                    )));
                }
                if self.role == Role::Client {
                    return Err(ConnectionError::protocol("server opened a non-push stream"));
                }
                self.highest_peer_stream = stream_id;
                if self
                    .local
                    .max_concurrent_streams
                    .is_some_and(|max| self.open_peer_streams >= max)
                {
                    self.queue_rst(stream_id, ErrorCode::RefusedStream);
                    return Ok(());
                }
                self.open_stream(stream_id, StreamState::Idle)
            }
        };
        s.on_recv_headers(end_stream)?;
        self.forget_if_closed(stream_id);
        self.events.push_back(Event::Headers {
            stream_id,
            fields,
            end_stream,
        });
        Ok(())
    }

    fn queue_rst(&mut self, stream_id: u32, code: ErrorCode) {
        Frame::RstStream { stream_id, code }.encode(&mut self.out);
    }

    fn queue_goaway(&mut self, code: ErrorCode, reason: &str) {
        if self.goaway_sent {
            return;
        }
        self.goaway_sent = true;
        Frame::Goaway {
            last_stream_id: self.highest_peer_stream,
            code,
            // vroom-lint: allow(hot-path-alloc) -- cold shutdown path: at most one GOAWAY per connection lifetime
            debug: reason.as_bytes().to_vec(),
        }
        .encode(&mut self.out);
    }

    // ---------------------------------------------------------------- send

    /// Send a request, opening a new stream (clients only). Returns the
    /// stream id.
    pub fn send_request(
        &mut self,
        request: &Request,
        end_stream: bool,
    ) -> Result<u32, ConnectionError> {
        assert_eq!(self.role, Role::Client, "only clients send requests");
        if self.goaway_received {
            return Err(ConnectionError::new(
                ErrorCode::RefusedStream,
                "connection is closing",
            ));
        }
        let id = self.next_local_stream;
        self.next_local_stream += 2;
        self.open_stream(id, StreamState::Idle)
            .on_send_headers(end_stream);
        self.send_header_block(id, &request.to_fields(), end_stream);
        Ok(id)
    }

    /// Send response headers on a stream (servers only).
    pub fn send_response(
        &mut self,
        stream_id: u32,
        response: &Response,
        end_stream: bool,
    ) -> Result<(), ConnectionError> {
        assert_eq!(self.role, Role::Server, "only servers send responses");
        let Some(s) = self.streams.get_mut(&stream_id) else {
            return Err(self.missing_stream(
                stream_id,
                "response on unknown stream",
                "response on unwritable stream",
            ));
        };
        if !s.can_send() {
            return Err(ConnectionError::new(
                ErrorCode::StreamClosed,
                "response on unwritable stream",
            ));
        }
        s.on_send_headers(end_stream);
        self.send_header_block(stream_id, &response.to_fields(), end_stream);
        self.forget_if_closed(stream_id);
        Ok(())
    }

    /// Promise a push on `stream_id` (servers only). Returns the promised
    /// stream id; follow with [`send_response`](Self::send_response) and
    /// data on that id.
    pub fn push_promise(
        &mut self,
        stream_id: u32,
        request: &Request,
    ) -> Result<u32, ConnectionError> {
        assert_eq!(self.role, Role::Server, "only servers push");
        if !self.peer.enable_push {
            return Err(ConnectionError::protocol("peer disabled push"));
        }
        let Some(parent) = self.streams.get(&stream_id) else {
            return Err(self.missing_stream(
                stream_id,
                "push on unknown stream",
                "push on closed stream",
            ));
        };
        if !parent.can_recv() && !parent.can_send() {
            return Err(ConnectionError::new(
                ErrorCode::StreamClosed,
                "push on closed stream",
            ));
        }
        let promised = self.next_local_stream;
        self.next_local_stream += 2;
        self.open_stream(promised, StreamState::ReservedLocal);
        let fields = request.to_fields();
        self.enc_buf.clear();
        self.hpack_enc.encode_into(&fields, &mut self.enc_buf);
        // PUSH_PROMISE fragments are small; we do not split them.
        frame::encode_push_promise_raw(&mut self.out, stream_id, promised, &self.enc_buf, true);
        Ok(promised)
    }

    fn send_header_block(&mut self, stream_id: u32, fields: &[HeaderField], end_stream: bool) {
        // Encode into the reused scratch, then frame directly from its
        // slices — the only copy is into the output buffer itself.
        self.enc_buf.clear();
        self.hpack_enc.encode_into(fields, &mut self.enc_buf);
        let max = self.peer.max_frame_size as usize;
        if self.enc_buf.len() <= max {
            frame::encode_headers_raw(&mut self.out, stream_id, &self.enc_buf, end_stream, true);
            return;
        }
        let last = self.enc_buf.len().div_ceil(max) - 1;
        for (i, chunk) in self.enc_buf.chunks(max).enumerate() {
            if i == 0 {
                frame::encode_headers_raw(&mut self.out, stream_id, chunk, end_stream, false);
            } else {
                frame::encode_continuation_raw(&mut self.out, stream_id, chunk, i == last);
            }
        }
    }

    /// Send body bytes, honoring flow control and the peer's max frame size.
    /// Returns how many bytes were accepted; the caller retries the rest
    /// after WINDOW_UPDATE events arrive. `end_stream` takes effect only
    /// when every byte of `data` was accepted.
    pub fn send_data(
        &mut self,
        stream_id: u32,
        data: &[u8],
        end_stream: bool,
    ) -> Result<usize, ConnectionError> {
        let Some(s) = self.streams.get_mut(&stream_id) else {
            return Err(self.missing_stream(
                stream_id,
                "data on unknown stream",
                "data on unwritable stream",
            ));
        };
        if !s.can_send() || s.state == StreamState::ReservedLocal {
            return Err(ConnectionError::new(
                ErrorCode::StreamClosed,
                "data on unwritable stream",
            ));
        }
        let budget =
            (s.send_window.sendable().min(self.conn_send.sendable()) as usize).min(data.len());
        let max_frame = self.peer.max_frame_size as usize;

        if data.is_empty() {
            if end_stream {
                frame::encode_data_raw(&mut self.out, stream_id, &[], true);
                s.on_send_end_stream();
                self.forget_if_closed(stream_id);
            }
            return Ok(0);
        }

        let mut sent = 0usize;
        while sent < budget {
            let n = (budget - sent).min(max_frame);
            let last_byte = sent + n == data.len();
            let fin = end_stream && last_byte;
            // One copy, caller's slice straight into the output buffer.
            frame::encode_data_raw(
                &mut self.out,
                stream_id,
                data.get(sent..sent + n).unwrap_or_default(),
                fin,
            );
            s.send_window.consume(n as u32);
            self.conn_send.consume(n as u32);
            sent += n;
            if fin {
                s.on_send_end_stream();
            }
        }
        self.forget_if_closed(stream_id);
        Ok(sent)
    }

    /// Reset a stream.
    pub fn reset_stream(&mut self, stream_id: u32, code: ErrorCode) {
        if let Some(s) = self.streams.get_mut(&stream_id) {
            s.on_reset();
        }
        self.forget_if_closed(stream_id);
        self.queue_rst(stream_id, code);
    }

    /// Send a PING.
    pub fn ping(&mut self, payload: [u8; 8]) {
        Frame::Ping {
            ack: false,
            payload,
        }
        .encode(&mut self.out);
    }

    /// Initiate graceful shutdown.
    pub fn goaway(&mut self, code: ErrorCode, reason: &str) {
        self.queue_goaway(code, reason);
    }

    /// Send a PRIORITY frame (advisory).
    pub fn priority(&mut self, stream_id: u32, spec: PrioritySpec) {
        Frame::Priority { stream_id, spec }.encode(&mut self.out);
    }
}

/// The connection receive window a side with `local` settings opens: its
/// initial stream window, never below the RFC's 65,535.
fn connection_window(local: &Settings) -> u32 {
    local.initial_window_size.max(DEFAULT_INITIAL_WINDOW_SIZE)
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("role", &self.role)
            .field("streams", &self.streams.len())
            .field("events", &self.events.len())
            .field("goaway_sent", &self.goaway_sent)
            .finish()
    }
}

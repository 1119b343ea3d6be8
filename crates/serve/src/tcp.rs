//! TCP front end: one thread per connection, line-delimited JSON.
//!
//! The accept loop polls a nonblocking listener so a `shutdown` command
//! can stop it without a self-connect trick. Connection threads carry a
//! read timeout so idle peers notice the stop flag; the accept loop
//! joins them all before draining the [`Server`] itself. A request line
//! longer than [`MAX_LINE_BYTES`] gets an error response and closes its
//! connection, so a peer that never sends a newline cannot grow a
//! connection's buffer without bound.

use crate::log::Level;
use crate::protocol::{self, Command};
use crate::server::Server;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Longest request line a connection accepts, newline excluded. A run
/// request is a few hundred bytes.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Bind `addr` and serve until a `shutdown` command arrives. Returns
/// the locally bound address via `on_bound` before serving (so callers
/// can bind port 0 and learn the port).
pub fn serve(
    server: Arc<Server>,
    addr: &str,
    on_bound: impl FnOnce(std::net::SocketAddr),
) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    on_bound(listener.local_addr()?);
    let stop = Arc::new(AtomicBool::new(false));
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let server = Arc::clone(&server);
                let stop = Arc::clone(&stop);
                conns.push(std::thread::spawn(move || {
                    let _ = handle_connection(stream, &server, &stop);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
    // Drain open connections, then the server itself.
    for c in conns {
        let _ = c.join();
    }
    server.shutdown();
    Ok(())
}

fn handle_connection(stream: TcpStream, server: &Server, stop: &AtomicBool) -> std::io::Result<()> {
    // A read timeout lets idle connections notice `stop` and exit, so
    // the accept loop's join cannot hang on a silent peer. Nagle off:
    // the protocol is strict request/response, where delayed ACKs
    // otherwise add ~40ms per round trip.
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        // read_until appends, so a line split across timeouts
        // accumulates in `buf` instead of being dropped; the take stops
        // it at `MAX_LINE_BYTES` plus one byte (the newline, if the line
        // fits).
        let room = (MAX_LINE_BYTES + 1 - buf.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(_) if buf.ends_with(b"\n") => {}
            Ok(_) if buf.len() > MAX_LINE_BYTES => {
                let error = format!("request line longer than {MAX_LINE_BYTES} bytes");
                server.log().event(Level::Warn, "parse_error", |f| {
                    f.str("error", &error);
                });
                writer.write_all(protocol::render_error(&error).as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                // Closing with the rest of the line unread would reset
                // the connection under the response: half-close, then
                // discard what the peer still sends until it stops.
                writer.shutdown(Shutdown::Write)?;
                while !stop.load(Ordering::SeqCst) {
                    match reader.fill_buf() {
                        Ok([]) | Err(_) => break,
                        Ok(chunk) => {
                            let n = chunk.len();
                            reader.consume(n);
                        }
                    }
                }
                break;
            }
            Ok(_) => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        let line = String::from_utf8(std::mem::take(&mut buf))
            .map_err(|_| "request line is not UTF-8".to_string());
        if line.as_ref().is_ok_and(|l| l.trim().is_empty()) {
            continue;
        }
        let response = match line.and_then(|l| protocol::parse_line(&l)) {
            Err(e) => {
                server.log().event(Level::Warn, "parse_error", |f| {
                    f.str("error", &e);
                });
                protocol::render_error(&e)
            }
            Ok(Command::Ping) => "{\"status\":\"ok\",\"pong\":true}".to_string(),
            Ok(Command::Metrics) => format!(
                "{{\"status\":\"ok\",\"metrics\":{}}}",
                figures::json::escape(&server.metrics_text())
            ),
            Ok(Command::Events) => {
                format!("{{\"status\":\"ok\",\"events\":{}}}", server.events_json())
            }
            Ok(Command::Health) => {
                format!("{{\"status\":\"ok\",\"health\":{}}}", server.health_json())
            }
            Ok(Command::Dump) => {
                format!("{{\"status\":\"ok\",\"dump\":{}}}", server.dump_json())
            }
            Ok(Command::Shutdown) => {
                server
                    .log()
                    .event(Level::Info, "shutdown_requested", |_| {});
                stop.store(true, Ordering::SeqCst);
                writer.write_all(b"{\"status\":\"ok\",\"stopping\":true}\n")?;
                writer.flush()?;
                break;
            }
            Ok(Command::Run(req)) => match server.run(&req) {
                Ok(resp) => protocol::render_ok(resp.cached, &resp.artifact),
                Err(e) => protocol::render_error(&e.to_string()),
            },
        };
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
    Ok(())
}

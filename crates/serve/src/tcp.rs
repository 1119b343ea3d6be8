//! TCP front end: one thread per connection, line-delimited JSON.
//!
//! The accept loop polls a nonblocking listener so a `shutdown` command
//! can stop it without a self-connect trick. Connection threads carry a
//! read timeout so idle peers notice the stop flag; the accept loop
//! joins them all before draining the [`Server`] itself.

use crate::log::Level;
use crate::protocol::{self, Command};
use crate::server::Server;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
    let mut buf = String::new();
    loop {
        // read_line appends, so a line split across timeouts
        // accumulates in `buf` instead of being dropped.
        match reader.read_line(&mut buf) {
            Ok(0) => break,
            Ok(_) if buf.ends_with('\n') => {}
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
        let line = std::mem::take(&mut buf);
        if line.trim().is_empty() {
            continue;
        }
        let response = match protocol::parse_line(&line) {
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

//! End-to-end wire test: a real listener on an ephemeral localhost
//! port, a real client speaking the line protocol, and a clean
//! shutdown via the `shutdown` command.

use serve::server::{Server, ServerConfig};
use serve::tcp;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;

fn roundtrip(reader: &mut BufReader<TcpStream>, line: &str) -> String {
    let stream = reader.get_mut();
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim_end().to_string()
}

#[test]
fn wire_protocol_round_trips_and_shuts_down() {
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    let listener = std::thread::spawn(move || {
        tcp::serve(server, "127.0.0.1:0", move |addr| {
            tx.send(addr).unwrap();
        })
        .expect("serve exits cleanly");
    });
    let addr = rx.recv().expect("listener binds");
    let stream = TcpStream::connect(addr).expect("client connects");
    stream.set_nodelay(true).unwrap();
    let mut conn = BufReader::new(stream);

    let pong = roundtrip(&mut conn, "{\"cmd\":\"ping\"}");
    assert!(pong.contains("\"pong\":true"), "{pong}");

    let req = "{\"tenant\":\"t\",\"impl\":\"bulk_sync\",\"grid\":8,\"steps\":1,\"tasks\":2}";
    let first = roundtrip(&mut conn, req);
    assert!(first.contains("\"status\":\"ok\""), "{first}");
    assert!(first.contains("\"cached\":false"), "{first}");
    let second = roundtrip(&mut conn, req);
    assert!(second.contains("\"cached\":true"), "{second}");
    // Byte-identity on the wire: everything after the cached flag is
    // the artifact, which must match exactly.
    let strip = |s: &str| s.split("\"artifact\":").nth(1).unwrap().to_string();
    assert_eq!(strip(&first), strip(&second));

    let bad = roundtrip(&mut conn, "{\"impl\":\"warp_drive\"}");
    assert!(bad.contains("\"status\":\"error\""), "{bad}");
    assert!(bad.contains("unknown impl"), "{bad}");

    let metrics = roundtrip(&mut conn, "{\"cmd\":\"metrics\"}");
    assert!(metrics.contains("serve_requests_total"), "{metrics}");
    assert!(metrics.contains("serve_cache_hits_total"), "{metrics}");

    // A line past the limit gets an error and loses its connection; the
    // server keeps serving everyone else.
    let mut flood = TcpStream::connect(addr).expect("second client connects");
    let long = vec![b'['; tcp::MAX_LINE_BYTES + 4096];
    flood.write_all(&long).unwrap();
    let mut flood = BufReader::new(flood);
    let mut refused = String::new();
    flood.read_line(&mut refused).unwrap();
    assert!(refused.contains("\"status\":\"error\""), "{refused}");
    assert!(refused.contains("longer than"), "{refused}");
    let mut rest = String::new();
    assert_eq!(flood.read_line(&mut rest).unwrap(), 0, "connection closed");
    let other = TcpStream::connect(addr).expect("third client connects");
    let pong = roundtrip(&mut BufReader::new(other), "{\"cmd\":\"ping\"}");
    assert!(pong.contains("\"pong\":true"), "{pong}");

    let stopping = roundtrip(&mut conn, "{\"cmd\":\"shutdown\"}");
    assert!(stopping.contains("\"stopping\":true"), "{stopping}");
    listener.join().expect("listener thread joins");
}

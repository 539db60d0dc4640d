//! The TCP front-end: a thread-per-connection server over `std::net`.
//!
//! The server owns a [`Service`] behind a mutex and speaks the
//! [`crate::wire`] protocol. It adds no numeric behaviour of its own —
//! every request is decoded, executed against the shared core, and the
//! reply re-encoded — so socket-level tests only need to establish that
//! bytes survive the trip; bit-identity is the core's property.
//!
//! Drift alerts are first-class here: a connection that sends
//! [`Request::Subscribe`] is switched to push mode and receives every
//! [`Response::Events`] frame produced by subsequent polls (from any
//! connection), so drift events fire to listeners instead of dying inside
//! a replay loop.
//!
//! Every accepted socket has Nagle's algorithm off, so a reply or a
//! subscriber push leaves as soon as it is written. `Stats` scrapes read
//! the metrics registry without the service lock, so they never queue
//! behind a running poll.

use crate::service::{render_registry, Service};
use crate::wire::{read_frame, write_frame, EstimateFrame, Request, Response, PROTOCOL_VERSION};
use crate::Result;
use ic_obs::MetricsRegistry;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

struct Shared {
    addr: SocketAddr,
    service: Mutex<Service>,
    /// The service's registry, taken at bind; `Stats` renders it without
    /// locking `service`. `None` when metrics are off.
    metrics: Option<Arc<MetricsRegistry>>,
    subscribers: Mutex<Vec<Sender<Vec<u8>>>>,
    shutdown: AtomicBool,
    /// Connection threads not yet joined: each accept joins those that
    /// have finished, and shutdown joins the rest.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// Sets the shutdown flag and pokes the listener so the accept loop
    /// observes it.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server (listener plus per-connection worker threads).
pub struct Server;

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), moves the
    /// service behind the listener, and starts accepting connections.
    pub fn bind(addr: impl ToSocketAddrs, service: Service) -> Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            addr: local,
            metrics: service.metrics_registry().cloned(),
            service: Mutex::new(service),
            subscribers: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let conn_shared = Arc::clone(&accept_shared);
                let worker = std::thread::spawn(move || {
                    // A broken connection only ends that connection.
                    let _ = handle_connection(stream, &conn_shared);
                });
                let mut workers = accept_shared
                    .workers
                    .lock()
                    .expect("worker list lock poisoned");
                // Join the connection threads that have finished (their
                // join returns at once), so the list stays as long as the
                // number of open connections.
                let mut k = 0;
                while k < workers.len() {
                    if workers[k].is_finished() {
                        let _ = workers.swap_remove(k).join();
                    } else {
                        k += 1;
                    }
                }
                workers.push(worker);
            }
        });
        Ok(ServerHandle {
            addr: local,
            shared,
            accept: Some(accept),
        })
    }
}

/// Handle to a running [`Server`]: address, shutdown, join.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and unblocks the accept loop.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until the server shuts down (e.g. a client sends
    /// [`Request::Shutdown`]), joins every thread, and returns the
    /// service so its final state (journal, tenants) can be inspected.
    pub fn wait(mut self) -> Service {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let workers = std::mem::take(&mut *self.shared.workers.lock().unwrap());
        for worker in workers {
            let _ = worker.join();
        }
        std::mem::take(&mut *self.shared.service.lock().unwrap())
    }

    /// Shuts down and joins every thread ([`ServerHandle::shutdown`] +
    /// [`ServerHandle::wait`]).
    pub fn join(self) -> Service {
        self.shutdown();
        self.wait()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) -> Result<()> {
    stream.set_nodelay(true)?;
    loop {
        let Some(payload) = read_frame(&mut stream)? else {
            return Ok(()); // peer closed cleanly
        };
        let request = match Request::decode(&payload) {
            Ok(req) => req,
            Err(e) => {
                // Undecodable frame: report and drop the connection — the
                // stream offset can no longer be trusted.
                let _ = write_frame(
                    &mut stream,
                    &Response::Error(format!("[{}] {e}", e.kind())).encode(),
                );
                return Ok(());
            }
        };
        match request {
            Request::Subscribe => {
                let (tx, rx) = channel::<Vec<u8>>();
                shared.subscribers.lock().unwrap().push(tx);
                write_frame(&mut stream, &Response::Subscribed.encode())?;
                // Push mode: forward event frames until shutdown or the
                // peer goes away.
                loop {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                    match rx.recv_timeout(Duration::from_millis(50)) {
                        Ok(frame) => write_frame(&mut stream, &frame)?,
                        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
                    }
                }
            }
            Request::Shutdown => {
                write_frame(&mut stream, &Response::ShutdownOk.encode())?;
                shared.request_shutdown();
                return Ok(());
            }
            other => {
                let response = execute(other, shared);
                write_frame(&mut stream, &response.encode())?;
            }
        }
    }
}

/// Executes one non-connection-control request against the shared core.
fn execute(request: Request, shared: &Shared) -> Response {
    let result = match request {
        // A scrape reads the registry's atomics, never the service lock.
        Request::Stats { format } => {
            render_registry(shared.metrics.as_deref(), format).map(Response::Stats)
        }
        request => execute_locked(request, shared),
    };
    // Wire errors lead with the stable kind slug so clients can match on
    // the class without parsing prose (`ServeError::kind`).
    result.unwrap_or_else(|e| Response::Error(format!("[{}] {e}", e.kind())))
}

/// Executes a request that needs the service, under its lock.
fn execute_locked(request: Request, shared: &Shared) -> Result<Response> {
    let mut service = shared.service.lock().expect("service lock poisoned");
    match request {
        Request::Hello => Ok(Response::HelloOk {
            protocol: PROTOCOL_VERSION,
            tenants: service.tenant_count() as u32,
        }),
        Request::Register(spec) => service
            .register(*spec)
            .map(|tenant| Response::Registered { tenant }),
        Request::Ingest { tenant, column } => {
            service
                .ingest(tenant, column)
                .map(|ready| Response::Ingested {
                    ready: ready as u64,
                })
        }
        Request::Poll => service.poll().map(|events| {
            if !events.is_empty() {
                publish(shared, &Response::Events(events.clone()).encode());
            }
            Response::Events(events)
        }),
        Request::Report { tenant } => service
            .last_report(tenant)
            .map(|report| Response::Report(report.cloned())),
        Request::Estimate { tenant } => service.last_estimate(tenant).map(|estimate| {
            Response::Estimate(estimate.map(|est| Box::new(EstimateFrame::from_estimate(est))))
        }),
        Request::Forecast { tenant } => service.forecast(tenant).map(Response::Forecast),
        Request::Snapshot { tenant } => service.snapshot_tenant(tenant).map(Response::Snapshot),
        Request::Restore(bytes) => service
            .restore_tenant(&bytes)
            .map(|tenant| Response::Restored { tenant }),
        // Stats is answered in `execute`; Subscribe/Shutdown are handled
        // at the connection level.
        Request::Stats { .. } | Request::Subscribe | Request::Shutdown => {
            Ok(Response::Error("unreachable control request".into()))
        }
    }
}

/// Sends an encoded frame to every live subscriber, dropping dead ones.
fn publish(shared: &Shared, frame: &[u8]) {
    let mut subs = shared.subscribers.lock().unwrap();
    subs.retain(|tx| tx.send(frame.to_vec()).is_ok());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::StatsFormat;
    use crate::{Client, ServeError};

    /// One `Stats` scrape sent from another thread while this thread holds
    /// the service lock; the reply arrives over a channel.
    fn scrape_while_locked(service: Service) -> Result<String> {
        let handle = Server::bind("127.0.0.1:0", service).unwrap();
        let addr = handle.addr();
        let guard = handle.shared.service.lock().unwrap();
        let (tx, rx) = channel();
        let scraper = std::thread::spawn(move || {
            let _ = tx.send(Client::connect(addr).and_then(|mut c| c.stats(StatsFormat::Json)));
        });
        let reply = rx.recv_timeout(Duration::from_secs(10));
        drop(guard);
        scraper.join().expect("scrape thread panicked");
        reply.expect("a Stats scrape waited behind the service lock")
    }

    #[test]
    fn closed_connections_do_not_accumulate_worker_handles() {
        let handle = Server::bind("127.0.0.1:0", Service::new()).unwrap();
        let addr = handle.addr();
        for _ in 0..200 {
            let mut client = Client::connect(addr).unwrap();
            client.hello().unwrap();
        }
        // Every accept drops the handles of the connections closed by
        // then, so once the 200 workers have seen their peers leave, one
        // more connection finds the list down to the live ones.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let mut held = usize::MAX;
        while held > 2 && std::time::Instant::now() < deadline {
            let mut client = Client::connect(addr).unwrap();
            client.hello().unwrap();
            held = handle.shared.workers.lock().unwrap().len();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            held <= 2,
            "{held} worker handles held after 200 connections"
        );
        handle.join();
    }

    #[test]
    fn stats_never_wait_for_the_service_lock() {
        let mut service = Service::new();
        service.enable_metrics();
        let json = scrape_while_locked(service).unwrap();
        assert!(json.contains("\"counters\""), "{json}");
        // Metrics off: the same bad-request error, also without the lock.
        let err = scrape_while_locked(Service::new()).unwrap_err();
        assert!(
            matches!(&err, ServeError::Remote(msg) if msg.starts_with("[bad-request]")),
            "{err}"
        );
    }
}

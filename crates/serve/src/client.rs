//! A blocking client for the `ic-serve` wire protocol.
//!
//! [`Client`] wraps one request/response TCP connection;
//! [`Client::subscribe`] converts a second connection into a
//! [`Subscription`] that receives pushed [`TenantEvent`] frames as the
//! server completes windows.

use crate::service::{TenantEvent, TenantId};
use crate::spec::TenantSpec;
use crate::wire::{read_frame, write_frame, EstimateFrame, Request, Response, StatsFormat};
use crate::{Result, ServeError};
use ic_stream::{ParamForecast, WindowReport};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A blocking request/response connection to a server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr`, with Nagle's algorithm off so each request
    /// frame leaves at once.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Connects, retrying for up to `timeout` while the server starts.
    pub fn connect_with_retry(addr: impl ToSocketAddrs + Clone, timeout: Duration) -> Result<Self> {
        let mut waited = Duration::ZERO;
        let step = Duration::from_millis(25);
        loop {
            match Client::connect(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(e) if waited >= timeout => return Err(e),
                Err(_) => {
                    std::thread::sleep(step);
                    waited += step;
                }
            }
        }
    }

    /// Sends one request and reads one response, surfacing
    /// [`Response::Error`] as [`ServeError::Remote`].
    pub fn call(&mut self, request: &Request) -> Result<Response> {
        write_frame(&mut self.stream, &request.encode())?;
        let Some(payload) = read_frame(&mut self.stream)? else {
            return Err(ServeError::Remote("server closed the connection".into()));
        };
        match Response::decode(&payload)? {
            Response::Error(msg) => Err(ServeError::Remote(msg)),
            resp => Ok(resp),
        }
    }

    fn unexpected(resp: Response) -> ServeError {
        ServeError::Remote(format!("unexpected response {resp:?}"))
    }

    /// Handshakes; returns the server's registered tenant count.
    pub fn hello(&mut self) -> Result<u32> {
        match self.call(&Request::Hello)? {
            Response::HelloOk { tenants, .. } => Ok(tenants),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Registers a tenant; returns its id.
    pub fn register(&mut self, spec: TenantSpec) -> Result<TenantId> {
        match self.call(&Request::Register(Box::new(spec)))? {
            Response::Registered { tenant } => Ok(tenant),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Ingests one link-load column; returns the tenant's ready-window
    /// count.
    pub fn ingest(&mut self, tenant: TenantId, column: Vec<f64>) -> Result<u64> {
        match self.call(&Request::Ingest { tenant, column })? {
            Response::Ingested { ready } => Ok(ready),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Runs every ready window; returns the completed-window events.
    pub fn poll(&mut self) -> Result<Vec<TenantEvent>> {
        match self.call(&Request::Poll)? {
            Response::Events(events) => Ok(events),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// The tenant's most recent window report, when one exists.
    pub fn report(&mut self, tenant: TenantId) -> Result<Option<WindowReport>> {
        match self.call(&Request::Report { tenant })? {
            Response::Report(report) => Ok(report),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// The tenant's most recent window estimate, when one exists.
    pub fn estimate(&mut self, tenant: TenantId) -> Result<Option<EstimateFrame>> {
        match self.call(&Request::Estimate { tenant })? {
            Response::Estimate(frame) => Ok(frame.map(|b| *b)),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// The tenant's next-window parameter forecast, when history exists.
    pub fn forecast(&mut self, tenant: TenantId) -> Result<Option<ParamForecast>> {
        match self.call(&Request::Forecast { tenant })? {
            Response::Forecast(forecast) => Ok(forecast),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Snapshots the tenant's warm state into portable bytes.
    pub fn snapshot(&mut self, tenant: TenantId) -> Result<Vec<u8>> {
        match self.call(&Request::Snapshot { tenant })? {
            Response::Snapshot(bytes) => Ok(bytes),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Restores a tenant from snapshot bytes; returns its (new) id.
    pub fn restore(&mut self, snapshot: &[u8]) -> Result<TenantId> {
        match self.call(&Request::Restore(snapshot.to_vec()))? {
            Response::Restored { tenant } => Ok(tenant),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// The server's metrics rendered as Prometheus text or JSON. Requires
    /// the server to have metrics enabled.
    pub fn stats(&mut self, format: StatsFormat) -> Result<String> {
        match self.call(&Request::Stats { format })? {
            Response::Stats(text) => Ok(text),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Asks the server to shut down.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownOk => Ok(()),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Switches this connection to push mode: the server streams every
    /// poll's completed-window events (drift alerts included) to it.
    pub fn subscribe(mut self) -> Result<Subscription> {
        match self.call(&Request::Subscribe)? {
            Response::Subscribed => Ok(Subscription {
                stream: self.stream,
            }),
            resp => Err(Self::unexpected(resp)),
        }
    }
}

/// A push-mode connection receiving completed-window event frames.
#[derive(Debug)]
pub struct Subscription {
    stream: TcpStream,
}

impl Subscription {
    /// Blocks until the next pushed event batch, for up to `timeout`.
    /// Returns `None` when the server closed the subscription.
    pub fn next_events(&mut self, timeout: Duration) -> Result<Option<Vec<TenantEvent>>> {
        self.stream.set_read_timeout(Some(timeout))?;
        let Some(payload) = read_frame(&mut self.stream)? else {
            return Ok(None);
        };
        match Response::decode(&payload)? {
            Response::Events(events) => Ok(Some(events)),
            resp => Err(ServeError::Remote(format!(
                "unexpected push frame {resp:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn connected_sockets_have_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        assert!(client.stream.nodelay().unwrap());
    }
}

//! Error type for the network layer.

use std::fmt;

use crate::wire::ErrorCode;

/// Errors raised by the wire codec, the server, or the remote client.
#[derive(Debug)]
pub enum NetError {
    /// An underlying socket error.
    Io(std::io::Error),
    /// Binding the server listener failed.
    Bind {
        /// The address that could not be bound.
        addr: String,
        /// The OS error text.
        message: String,
    },
    /// Connecting to a remote federation failed.
    Connect {
        /// The address that could not be reached.
        addr: String,
        /// The OS error text.
        message: String,
    },
    /// The peer closed the connection at a frame boundary (or mid-frame).
    Disconnected,
    /// A frame failed to decode.
    Malformed(&'static str),
    /// A protocol version was requested that the other side does not
    /// support. Carries both sides of the negotiation: the version that
    /// was asked for and the highest the rejecting side speaks.
    UnsupportedVersion {
        /// The version that was requested (a frame header's version).
        requested: u16,
        /// The highest version the rejecting side supports.
        supported: u16,
    },
    /// A frame header declared a payload above the hard cap.
    FrameTooLarge {
        /// Declared payload length.
        declared: u32,
        /// The cap ([`crate::wire::MAX_PAYLOAD`]).
        max: u32,
    },
    /// A frame header carried an unknown kind byte.
    UnknownKind(u8),
    /// The connection handshake went wrong (frame order, not content).
    Handshake(&'static str),
    /// The server could not be configured (e.g. invalid analyst budget).
    BadServeConfig(String),
    /// The server answered with a typed [`crate::wire::ErrorFrame`].
    Remote {
        /// The typed error code.
        code: ErrorCode,
        /// The server's human-readable message.
        message: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "network i/o error: {e}"),
            NetError::Bind { addr, message } => write!(f, "cannot listen on {addr}: {message}"),
            NetError::Connect { addr, message } => {
                write!(f, "cannot connect to {addr}: {message}")
            }
            NetError::Disconnected => write!(f, "connection closed by peer"),
            NetError::Malformed(what) => write!(f, "malformed frame: {what}"),
            NetError::UnsupportedVersion {
                requested,
                supported,
            } => {
                write!(
                    f,
                    "wire-protocol version {requested} is unsupported \
                     (peer supports up to version {supported})"
                )
            }
            NetError::FrameTooLarge { declared, max } => {
                write!(
                    f,
                    "frame payload of {declared} bytes exceeds the {max}-byte cap"
                )
            }
            NetError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            NetError::Handshake(what) => write!(f, "handshake failed: {what}"),
            NetError::BadServeConfig(what) => write!(f, "bad server configuration: {what}"),
            NetError::Remote { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_one_line() {
        let cases: Vec<NetError> = vec![
            NetError::Disconnected,
            NetError::Malformed("trailing bytes"),
            NetError::UnsupportedVersion {
                requested: 9,
                supported: 2,
            },
            NetError::FrameTooLarge {
                declared: 1 << 30,
                max: 1 << 20,
            },
            NetError::UnknownKind(77),
            NetError::Handshake("expected Hello"),
            NetError::BadServeConfig("xi must be positive".into()),
            NetError::Remote {
                code: ErrorCode::BudgetExhausted,
                message: "out of budget".into(),
            },
            NetError::Bind {
                addr: "1.2.3.4:1".into(),
                message: "denied".into(),
            },
            NetError::Connect {
                addr: "1.2.3.4:1".into(),
                message: "refused".into(),
            },
        ];
        for e in cases {
            let text = e.to_string();
            assert!(!text.is_empty());
            assert!(
                !text.contains('\n'),
                "error display must stay one line: {text}"
            );
        }
    }
}

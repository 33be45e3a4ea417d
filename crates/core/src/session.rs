//! Per-connection protocol sessions: OT extension and Yao state.
//!
//! ABNN² uses two OT sessions with opposite roles:
//!
//! * the **fragment-OT** session for linear layers, where the *server*
//!   (model holder) is the chooser — its weight fragments are the choice
//!   symbols — and the *client* is the sender. The backend is the
//!   negotiated [`OfflineMode`]: KK13 extension or silent (LPN) expansion;
//! * the **IKNP** session inside Yao's protocol for activations, where the
//!   client garbles and the server evaluates (so the server is the OT
//!   receiver for its input labels).
//!
//! Both are seeded once per connection by base OTs over the Edwards curve.

use crate::ProtocolError;
use abnn2_gc::{YaoEvaluator, YaoGarbler};
use abnn2_net::Transport;
use abnn2_ot::{FragmentChooser, FragmentSender, OfflineMode};
use rand::Rng;

/// Server-side session state (model holder).
#[derive(Debug, Clone)]
pub struct ServerSession {
    /// 1-out-of-N OT chooser used by the matmul triplet protocol.
    pub kk: FragmentChooser,
    /// Garbled-circuit evaluator used by activation layers.
    pub yao: YaoEvaluator,
}

/// Client-side session state (data owner).
#[derive(Debug)]
pub struct ClientSession {
    /// 1-out-of-N OT sender used by the matmul triplet protocol.
    pub kk: FragmentSender,
    /// Garbled-circuit garbler used by activation layers.
    pub yao: YaoGarbler,
}

impl ServerSession {
    /// Runs both base-OT setups with the portable KK13 backend; must pair
    /// with [`ClientSession::setup`] on the other endpoint.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        rng: &mut R,
    ) -> Result<Self, ProtocolError> {
        Self::setup_with(ch, OfflineMode::Iknp, rng)
    }

    /// Runs both base-OT setups with an explicit offline mode; must pair
    /// with [`ClientSession::setup_with`] using the *same* mode.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup_with<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        mode: OfflineMode,
        rng: &mut R,
    ) -> Result<Self, ProtocolError> {
        let mut cursor = SetupCursor::new(mode);
        loop {
            if let Some(session) = cursor.step(ch, rng)? {
                return Ok(session);
            }
        }
    }

    /// The offline mode this session was established with.
    #[must_use]
    pub fn mode(&self) -> OfflineMode {
        self.kk.mode()
    }
}

/// Server session setup split at its suspension points: one step runs
/// the fragment-OT base setup, the next the Yao base setup. A step that
/// fails leaves the cursor as it was, so the session driver can re-run
/// exactly the step that parked on a missing frame.
#[derive(Debug)]
pub(crate) struct SetupCursor {
    mode: OfflineMode,
    /// The fragment chooser, once its step has completed.
    kk: Option<FragmentChooser>,
}

impl SetupCursor {
    pub(crate) fn new(mode: OfflineMode) -> Self {
        SetupCursor { mode, kk: None }
    }

    /// Runs the next setup step; returns the session after the last one.
    pub(crate) fn step<T: Transport, R: Rng + ?Sized>(
        &mut self,
        ch: &mut T,
        rng: &mut R,
    ) -> Result<Option<ServerSession>, ProtocolError> {
        let Some(kk) = self.kk.take() else {
            self.kk = Some(FragmentChooser::setup(ch, self.mode, rng)?);
            return Ok(None);
        };
        match YaoEvaluator::setup(ch, rng) {
            Ok(yao) => Ok(Some(ServerSession { kk, yao })),
            Err(e) => {
                self.kk = Some(kk);
                Err(e.into())
            }
        }
    }
}

impl ClientSession {
    /// Runs both base-OT setups with the portable KK13 backend; must pair
    /// with [`ServerSession::setup`].
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        rng: &mut R,
    ) -> Result<Self, ProtocolError> {
        Self::setup_with(ch, OfflineMode::Iknp, rng)
    }

    /// Runs both base-OT setups with an explicit offline mode; must pair
    /// with [`ServerSession::setup_with`] using the *same* mode.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup_with<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        mode: OfflineMode,
        rng: &mut R,
    ) -> Result<Self, ProtocolError> {
        let kk = FragmentSender::setup(ch, mode, rng)?;
        let yao = YaoGarbler::setup(ch, rng)?;
        Ok(ClientSession { kk, yao })
    }

    /// The offline mode this session was established with.
    #[must_use]
    pub fn mode(&self) -> OfflineMode {
        self.kk.mode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_net::{run_pair, NetworkModel};
    use rand::SeedableRng;

    #[test]
    fn sessions_establish() {
        let (s, c, report) = run_pair(
            NetworkModel::instant(),
            |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(1);
                ServerSession::setup(ch, &mut rng).is_ok()
            },
            |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(2);
                ClientSession::setup(ch, &mut rng).is_ok()
            },
        );
        assert!(s && c);
        // 2κ + κ base OTs worth of points crossed the wire.
        assert!(report.total_bytes() > 0);
    }

    #[test]
    fn silent_sessions_establish() {
        let (s, c, _) = run_pair(
            NetworkModel::instant(),
            |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(3);
                ServerSession::setup_with(ch, OfflineMode::Silent, &mut rng)
                    .map(|s| s.mode())
                    .expect("server setup")
            },
            |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(4);
                ClientSession::setup_with(ch, OfflineMode::Silent, &mut rng)
                    .map(|c| c.mode())
                    .expect("client setup")
            },
        );
        assert_eq!(s, OfflineMode::Silent);
        assert_eq!(c, OfflineMode::Silent);
    }
}

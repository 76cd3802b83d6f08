//! The executor: the job server every run is submitted to. Ranks suspend at
//! synchronization points and park their wakers in their job's hub and
//! mailboxes; all virtual-time accounting, collective semantics and message
//! matching live in [`crate::hub`], [`crate::mailbox`] and [`crate::ctx`].

pub(crate) mod server;

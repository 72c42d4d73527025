//! The one socket option the plane sets that `std` does not expose: the
//! kernel receive buffer (`SO_RCVBUF`), through libc's `setsockopt`.
//!
//! A plane's sockets take a whole cluster's ALIVEs at once when a cold
//! start's candidates all send on the same grid slot. The default buffer
//! (≈ 208 KiB on Linux) dropped 3 % of those datagrams for 250 nodes on 4
//! sockets, and each dropped first ALIVE left its winner waiting one
//! detection bound for a candidate it had not heard. Where the option is
//! not wired up, sockets keep the default.

use std::net::UdpSocket;

/// The receive buffer each plane socket asks for. The kernel caps it at
/// `net.core.rmem_max` and reports twice what it grants.
pub const RECEIVE_BUFFER: usize = 4 << 20;

/// Asks the kernel for [`RECEIVE_BUFFER`] bytes of receive buffer on
/// `socket`, best effort: a refusal leaves the default.
pub fn widen_receive_buffer(socket: &UdpSocket) {
    imp::set_receive_buffer(socket, RECEIVE_BUFFER);
}

#[cfg(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "x86",
        target_arch = "aarch64",
        target_arch = "arm",
        target_arch = "riscv64"
    )
))]
mod imp {
    use std::ffi::{c_int, c_void};
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;

    // <asm-generic/socket.h>, which these architectures use.
    const SOL_SOCKET: c_int = 1;
    const SO_RCVBUF: c_int = 8;
    const INT_LEN: u32 = std::mem::size_of::<c_int>() as u32;

    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
        #[cfg(test)]
        fn getsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *mut c_void,
            len: *mut u32,
        ) -> c_int;
    }

    /// Asks for `bytes` of receive buffer on `socket`; a refusal (the
    /// status) leaves the default.
    pub fn set_receive_buffer(socket: &UdpSocket, bytes: usize) {
        let value = c_int::try_from(bytes).unwrap_or(c_int::MAX);
        let value: *const c_int = &value;
        // SAFETY: the descriptor stays open for the call (`socket` is
        // borrowed), and `value` points at a live `c_int` of `INT_LEN` bytes.
        unsafe {
            setsockopt(
                socket.as_raw_fd(),
                SOL_SOCKET,
                SO_RCVBUF,
                value.cast(),
                INT_LEN,
            );
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// The receive buffer `socket` has, as the kernel reports it.
        fn receive_buffer(socket: &UdpSocket) -> usize {
            let mut value: c_int = 0;
            let mut len = INT_LEN;
            let out: *mut c_int = &mut value;
            // SAFETY: as in `set_receive_buffer`; `out` and `len` point at
            // live locals, and `len` says how many bytes `out` can take.
            let status = unsafe {
                getsockopt(
                    socket.as_raw_fd(),
                    SOL_SOCKET,
                    SO_RCVBUF,
                    out.cast(),
                    &mut len,
                )
            };
            assert_eq!(status, 0, "SO_RCVBUF reads");
            usize::try_from(value).unwrap()
        }

        #[test]
        fn a_widened_socket_holds_the_request_or_the_hosts_cap() {
            let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
            let before = receive_buffer(&socket);
            super::super::widen_receive_buffer(&socket);
            let after = receive_buffer(&socket);
            let cap = std::fs::read_to_string("/proc/sys/net/core/rmem_max")
                .ok()
                .and_then(|text| text.trim().parse::<usize>().ok());
            // Granted is the request capped at `rmem_max`, reported doubled;
            // with the cap unreadable the buffer must at least not shrink.
            let floor = cap.map_or(before, |cap| super::super::RECEIVE_BUFFER.min(cap));
            assert!(after >= floor, "{after} < {floor} (before: {before})");
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "x86",
        target_arch = "aarch64",
        target_arch = "arm",
        target_arch = "riscv64"
    )
)))]
mod imp {
    use std::net::UdpSocket;

    /// Not wired up here: the socket keeps its default.
    pub fn set_receive_buffer(_socket: &UdpSocket, _bytes: usize) {}
}

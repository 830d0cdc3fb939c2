//! Wake-up / IPC functions — the implicit-barrier list of paper §4.2.
//!
//! All of these imply a full memory barrier (the scheduler's
//! `try_to_wake_up` contains one) and, more importantly for pairing, act as
//! an *implicit read barrier* for the woken thread: a writer that publishes
//! data, issues `smp_wmb()`, and then wakes a consumer does not need the
//! consumer to issue an explicit `smp_rmb()`.

/// The wake-up function list. Kept sorted for the binary search in
/// [`is_wakeup_function`].
const WAKEUP_FUNCTIONS: &[&str] = &[
    "__wake_up",
    "__wake_up_sync",
    "complete",
    "complete_all",
    "irq_work_queue",
    "kick_process",
    "queue_work",
    "queue_work_on",
    "rcuwait_wake_up",
    "schedule_work",
    "smp_call_function",
    "smp_call_function_any",
    "smp_call_function_many",
    "smp_call_function_single",
    "swake_up_all",
    "swake_up_locked",
    "swake_up_one",
    "wake_up",
    "wake_up_all",
    "wake_up_bit",
    "wake_up_interruptible",
    "wake_up_interruptible_all",
    "wake_up_interruptible_sync",
    "wake_up_locked",
    "wake_up_process",
    "wake_up_q",
    "wake_up_state",
    "wake_up_var",
];

/// Is `name` a wake-up / IPC function (implicit barrier)?
pub fn is_wakeup_function(name: &str) -> bool {
    WAKEUP_FUNCTIONS.binary_search(&name).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_is_sorted() {
        let mut sorted = WAKEUP_FUNCTIONS.to_vec();
        sorted.sort_unstable();
        assert_eq!(
            sorted, WAKEUP_FUNCTIONS,
            "list must stay sorted for binary search"
        );
    }

    #[test]
    fn known_wakeups() {
        assert!(is_wakeup_function("wake_up_process"));
        assert!(is_wakeup_function("smp_call_function_many"));
        assert!(is_wakeup_function("complete"));
    }

    #[test]
    fn non_wakeups() {
        assert!(!is_wakeup_function("schedule"));
        assert!(!is_wakeup_function("wait_event"));
        assert!(!is_wakeup_function("smp_wmb"));
    }
}

"""REP014 fixture (clean): journaled flips, and exempt session state."""


class CommitmentState:
    PENDING = "pending"
    CONFIRMED = "confirmed"


class SessionState:
    PLAYING = "playing"
    COMPLETED = "completed"


class JournaledCommitment:
    def __init__(self, journal: object) -> None:
        self._journal = journal
        self.state = None

    def _journal_transition(self, record_type: str) -> None:
        del record_type

    def begin(self) -> None:
        self._journal_transition("reserved")
        self.state = CommitmentState.PENDING

    def confirm(self) -> None:
        self._journal_transition("confirmed")
        self.state = CommitmentState.CONFIRMED


class Playout:
    def __init__(self) -> None:
        # SessionState is volatile playout state, not a reservation:
        # no journal record is owed.
        self.state = SessionState.PLAYING

    def complete(self) -> None:
        self.state = SessionState.COMPLETED
